(* Ablations of the design decisions DESIGN.md calls out:
     - event streaming vs the centralised lockstep monitor,
     - the shared ring buffer vs per-follower queues with an event pump,
     - selective rewriting vs trapping every syscall,
     - ring size vs performance and divergence-detection delay,
     - waitlocks vs pure busy-waiting. *)

module Driver = Varan_workloads.Driver
module Workload = Varan_workloads.Workload
module Catalog = Varan_workloads.Catalog
module Config = Varan_nvx.Config
module Nvx = Varan_nvx.Session
module Tablefmt = Varan_util.Tablefmt

let nvx ?(config = Config.default) followers = Driver.Nvx { followers; config }

let overhead w mode =
  let native = Driver.run w Driver.Native in
  Driver.overhead ~baseline:native (Driver.run w mode)

let lockstep () =
  print_endline
    "=== Ablation: event streaming vs lockstep (two versions) ===\n";
  let table =
    Tablefmt.create
      [
        ("server", Tablefmt.Left);
        ("varan (streaming)", Tablefmt.Right);
        ("lockstep monitor", Tablefmt.Right);
      ]
  in
  List.iter
    (fun w ->
      Tablefmt.add_row table
        [
          w.Workload.w_name;
          Tablefmt.ratio (overhead w (nvx 1));
          Tablefmt.ratio (overhead w (Driver.Lockstep { versions = 2 }));
        ])
    Catalog.c10k_servers;
  Tablefmt.print table

let pump () =
  print_endline
    "=== Ablation: shared ring buffer vs event pump (the discarded first \
     design, \xc2\xa73.3.1) ===\n";
  let pump_config =
    { Config.default with Config.streaming = Config.Event_pump }
  in
  let table =
    Tablefmt.create
      (("server", Tablefmt.Left)
      :: List.concat_map
           (fun f ->
             [
               (Printf.sprintf "ring %df" f, Tablefmt.Right);
               (Printf.sprintf "pump %df" f, Tablefmt.Right);
             ])
           [ 1; 3; 6 ])
  in
  List.iter
    (fun w ->
      let native = Driver.run w Driver.Native in
      let cells =
        List.concat_map
          (fun f ->
            [
              Tablefmt.ratio
                (Driver.overhead ~baseline:native (Driver.run w (nvx f)));
              Tablefmt.ratio
                (Driver.overhead ~baseline:native
                   (Driver.run w (nvx ~config:pump_config f)));
            ])
          [ 1; 3; 6 ]
      in
      Tablefmt.add_row table (w.Workload.w_name :: cells))
    [ Catalog.beanstalkd; Catalog.redis ];
  Tablefmt.print table

let trap_only () =
  print_endline
    "=== Ablation: selective rewriting vs INT-trap-only interception ===\n";
  let trap_config =
    { Config.default with Config.interception = Config.Trap_only }
  in
  let table =
    Tablefmt.create
      [
        ("server", Tablefmt.Left);
        ("rewrite 0f", Tablefmt.Right);
        ("trap-only 0f", Tablefmt.Right);
        ("rewrite 1f", Tablefmt.Right);
        ("trap-only 1f", Tablefmt.Right);
      ]
  in
  List.iter
    (fun w ->
      let native = Driver.run w Driver.Native in
      let cell config f =
        Tablefmt.ratio
          (Driver.overhead ~baseline:native (Driver.run w (nvx ?config f)))
      in
      Tablefmt.add_row table
        [
          w.Workload.w_name;
          cell None 0;
          cell (Some trap_config) 0;
          cell None 1;
          cell (Some trap_config) 1;
        ])
    [ Catalog.beanstalkd; Catalog.lighttpd_wrk ];
  Tablefmt.print table

let ring_size () =
  print_endline
    "=== Ablation: ring size vs overhead and divergence-detection delay \
     (\xc2\xa76) ===\n";
  let table =
    Tablefmt.create
      [
        ("ring size", Tablefmt.Right);
        ("overhead (1f)", Tablefmt.Right);
        ("max observed lag", Tablefmt.Right);
      ]
  in
  let w = Catalog.beanstalkd in
  let native = Driver.run w Driver.Native in
  List.iter
    (fun size ->
      let config = Config.with_ring_size Config.default size in
      let m, s = Driver.run_with_full_session w ~followers:1 ~config in
      Tablefmt.add_row table
        [
          string_of_int size;
          Tablefmt.ratio (Driver.overhead ~baseline:native m);
          string_of_int (Nvx.stats s).Nvx.max_observed_lag;
        ])
    [ 1; 4; 16; 64; 256; 1024 ];
  Tablefmt.print table;
  print_endline
    "size 1 disables buffering: divergences are detected immediately, at a \
     throughput cost\n(the security trade-off discussed in Section 6)."

let waitlock () =
  print_endline "=== Ablation: waitlocks vs pure busy-waiting ===\n";
  let busy_config =
    { Config.default with Config.follower_wait = Config.Busy_wait }
  in
  let table =
    Tablefmt.create
      [
        ("server", Tablefmt.Left);
        ("waitlock", Tablefmt.Right);
        ("busy-wait", Tablefmt.Right);
        ("burned cycles (busy)", Tablefmt.Right);
      ]
  in
  List.iter
    (fun w ->
      let native = Driver.run w Driver.Native in
      let m_wl, _ =
        Driver.run_with_full_session w ~followers:1 ~config:Config.default
      in
      let m_busy, s_busy =
        Driver.run_with_full_session w ~followers:1 ~config:busy_config
      in
      let burned =
        Array.fold_left
          (fun acc v -> Int64.add acc v.Nvx.vs_stall_cycles)
          0L (Nvx.stats s_busy).Nvx.variants
      in
      Tablefmt.add_row table
        [
          w.Workload.w_name;
          Tablefmt.ratio (Driver.overhead ~baseline:native m_wl);
          Tablefmt.ratio (Driver.overhead ~baseline:native m_busy);
          Printf.sprintf "%.1fM" (Int64.to_float burned /. 1e6);
        ])
    [ Catalog.beanstalkd; Catalog.redis ];
  Tablefmt.print table;
  print_endline
    "Busy waiting keeps wall-clock overhead similar but burns follower CPU\n\
     while the ring is empty; waitlocks trade a futex round trip for idle \
     cores."

let run () =
  lockstep ();
  print_newline ();
  pump ();
  print_newline ();
  trap_only ();
  print_newline ();
  ring_size ();
  print_newline ();
  waitlock ()
