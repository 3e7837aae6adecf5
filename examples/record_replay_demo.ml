(* Record-replay (paper §5.4): a recorder client drains the ring buffer
   to persistent storage while the application runs at nearly full speed;
   later, a replay leader republishes the log and several replay clients
   re-execute the run — e.g. to find which versions crash on a recorded
   input.

     dune exec examples/record_replay_demo.exe *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Flags = Varan_kernel.Flags
module Nvx = Varan_nvx.Session
module Variant = Varan_nvx.Variant
module RR = Varan_nvx.Record_replay

let ok = function
  | Ok v -> v
  | Error e -> failwith (Varan_syscall.Errno.name e)

(* The recorded program: consumes entropy and timestamps — exactly the
   nondeterminism a replay must reproduce faithfully. *)
let observations : (string, string) Hashtbl.t = Hashtbl.create 8

let program name api =
  let rand = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
  let bytes = ok (Api.read api rand 8) in
  ignore (ok (Api.close api rand));
  let stamp = Api.clock_gettime_ns api in
  let digest =
    Printf.sprintf "%s@%Ld"
      (String.concat ""
         (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
            (List.of_seq (Bytes.to_seq bytes))))
      stamp
  in
  Hashtbl.replace observations name digest;
  Printf.printf "  [%s] observed %s\n" name digest

let () =
  Varan_util.Prng.create 1 |> ignore;

  (* Phase 1: record. *)
  print_endline "Phase 1: recording a run (leader + recorder client):";
  let engine = E.create () in
  let kernel = K.create engine in
  Varan_kernel.Vfs.add_file kernel "/var/.keep" "";
  let variants = [ Variant.make "original" (Variant.single (program "record")) ] in
  let session = Nvx.launch kernel variants in
  let recorder = RR.record session kernel ~tuple:0 ~path:"/var/run.log" in
  E.run_until_quiescent engine;
  ignore (E.spawn engine (fun () -> RR.stop recorder));
  E.run_until_quiescent engine;
  Printf.printf "  recorded %d events to /var/run.log\n\n"
    (RR.recorded_events recorder);

  (* Phase 2: replay the log into two clients at once. *)
  print_endline "Phase 2: replaying the log into two replay clients:";
  let engine2 = E.create () in
  let kernel2 = K.create ~seed:999 (* different machine entropy! *) engine2 in
  (match Varan_kernel.Vfs.read_file kernel "/var/run.log" with
  | Some log -> Varan_kernel.Vfs.add_file kernel2 "/var/run.log" log
  | None -> failwith "log missing");
  let rp =
    RR.replay kernel2 ~path:"/var/run.log"
      [
        Variant.make "replay-a" (Variant.single (program "replay-a"));
        Variant.make "replay-b" (Variant.single (program "replay-b"));
      ]
  in
  E.run_until_quiescent engine2;
  (match RR.replay_stopped rp with
  | Some why -> Printf.printf "  the log ended early: %s\n" why
  | None -> ());
  Printf.printf "  replayed %d events, %d divergences\n\n"
    (RR.replayed_events rp)
    (List.length (RR.replay_crashes rp));

  let original = Hashtbl.find observations "record" in
  let same name = Hashtbl.find observations name = original in
  Printf.printf
    "Replays observed the recorded entropy and timestamps: a=%b b=%b\n"
    (same "replay-a") (same "replay-b");
  if same "replay-a" && same "replay-b" then
    print_endline "Deterministic replay on a different machine: success."
  else begin
    print_endline "MISMATCH: replay diverged!";
    exit 1
  end
