(* The host's current slowdown, from a fixed reference kernel: prints
   the kernel's time over [reference_s]. Other tenants of a shared host
   can slow every process on it by up to ~1.8x for minutes at a time.
   run.py runs this between jobs and divides a job's host times by the
   mean slowdown just before and just after it, so they read as seconds
   at the speed the baseline machine had when quiet. The kernel does, in
   stdlib code only, what the simulator does most: effect-handler task
   switches, hash-table churn and short-lived allocation. It runs in a
   process of its own so that it leaves the jobs' heaps alone. *)

type _ Effect.t += Yield : unit Effect.t

(* [n] fibers that each yield [steps] times, resumed round-robin. *)
let fibers n steps =
  let ready = Queue.create () in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                Queue.push (fun () -> Effect.Deep.continue k ()) ready)
          | _ -> None);
    }
  in
  for _ = 1 to n do
    Queue.push
      (fun () ->
        Effect.Deep.match_with
          (fun () ->
            for _ = 1 to steps do
              Effect.perform Yield
            done)
          () handler)
      ready
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done

let churn n =
  let h = Hashtbl.create 1024 in
  for i = 1 to n do
    Hashtbl.replace h (i land 8191) (string_of_int i);
    if i land 3 = 0 then Hashtbl.remove h ((i * 7) land 8191)
  done;
  ignore (List.sort compare (List.init (n / 4) (fun i -> (i * 7919) land 65535)))

let kernel () =
  fibers 64 2_000;
  churn 200_000

(* The kernel's median time on a quiet 2-vCPU container of the machine
   the README's baseline was measured on. *)
let reference_s = 0.048

(* Median of five runs, about a quarter of a second. *)
let () =
  let once () =
    let t = Spans.now_ns () in
    kernel ();
    Spans.seconds_since t
  in
  Printf.printf "%.17g\n" (Varan_util.Stats.median (List.init 5 (fun _ -> once ())) /. reference_s)
