type interception = Rewrite | Trap_only | Jump_only
type follower_wait = Waitlock | Busy_wait
type streaming = Shared_ring | Event_pump

type net = {
  remote_followers : int;
  link_latency : int;
}

let default_net =
  {
    remote_followers = 1;
    link_latency = 2000;
  }

type t = {
  ring_size : int;
  interception : interception;
  follower_wait : follower_wait;
  streaming : streaming;
  trace_first_variant : bool;
  fault_plan : Varan_fault.Plan.t;
  oracle : Varan_trace.Oracle.t option;
  lifecycle : Lifecycle.policy option;
  net : net option;
}

let default =
  {
    ring_size = 256;
    interception = Rewrite;
    follower_wait = Waitlock;
    streaming = Shared_ring;
    trace_first_variant = false;
    fault_plan = Varan_fault.Plan.empty;
    oracle = None;
    lifecycle = None;
    net = None;
  }

let with_ring_size t n = { t with ring_size = n }
