(* Deterministic fault injection and the trace oracle: run one torture
   case — a random syscall program under a random fault plan, with 1–4
   followers — and show what the harness checks. Everything derives from
   the seed, so the same command always produces the same crashes, the
   same promotion chain and the same oracle report. The [varan torture]
   subcommand wraps exactly this.

     dune exec examples/torture_demo.exe [seed]

   Try a seed whose plan crashes the leader (e.g. 48936) to watch a
   promotion chain where every surviving variant still matches the
   native run byte for byte. *)

module H = Varan_torture.Harness
module Fault = Varan_fault.Plan
module Oracle = Varan_trace.Oracle

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 48936
  in
  let case = H.gen_case seed in
  let out = H.run case in
  let failures = H.check case out in
  Printf.printf "case: %s\n\n" (H.describe_case case);

  print_endline "fault plan:";
  List.iter (fun inj -> Printf.printf "  %s\n" (Fault.describe inj)) case.H.plan;

  print_endline "\ncrashes (every one must be plan-injected):";
  if out.H.crashes = [] then print_endline "  none"
  else
    List.iter
      (fun (idx, msg) -> Printf.printf "  variant %d: %s\n" idx msg)
      out.H.crashes;

  Printf.printf "\nleader after the run: variant %d\n" out.H.leader_idx;
  Array.iteri
    (fun i d ->
      Printf.printf "  v%d %s digest %s native\n" i
        (if out.H.alive.(i) then "alive" else "dead ")
        (if d = out.H.natives.(0) then "==" else "<>"))
    out.H.digests;

  Option.iter (Format.printf "\n%a@." Oracle.pp_report) out.H.report;

  match failures with
  | [] -> print_endline "verdict: PASS — all invariants hold"
  | fs ->
    print_endline "verdict: FAIL";
    List.iter (fun f -> Printf.printf "  %s\n" f) fs;
    exit 1
