(* The benchmark's own test, at reduced size (two cheap programs per
   workload):

     dune build @perfbench/bench-test

   - every workload, run twice on one seed, reports zero failures and
     exactly the same deterministic counts, simulated cycles and code size;
   - every workload's traced run reports zero failures (its unrolled path
     produced the same documents as the untraced one) and every per-layer
     metric;
   - the cheap entries of the expected-output table are what the reference
     interpreter prints today. *)

open Perfbench
open Epic_workloads

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let value (r : Bench.result) name =
  (List.find (fun (x : Bench.metric) -> x.Bench.name = name) r.Bench.metrics).Bench.value

let workloads =
  [
    ("compile-cold", Compile_cold.run ~small:true);
    ("sim-matrix", Sim_matrix.run ~small:true);
    ("serve-mix", Serve_mix.run ~small:true);
  ]

let per_layer_names =
  let r =
    Layers.metrics (Span.create ~enabled:false) ~traffic:Layers.no_traffic ~untraced_s:0.
      ~traced_s:0.
  in
  List.map (fun (x : Bench.metric) -> x.Bench.name) r

let () =
  Bench.Probe.start ();
  List.iter
    (fun (name, run) ->
      let go trace = run ~seed:7 ~seconds:1 ~trace ~spans_file:("_spans/" ^ name ^ ".json") () in
      let a = go false and b = go false in
      check (name ^ ": no failures") (a.Bench.failed = 0 && b.Bench.failed = 0);
      check (name ^ ": counts repeat") (a.Bench.counts = b.Bench.counts);
      List.iter
        (fun m -> check (name ^ ": " ^ m ^ " repeats") (value a m = value b m))
        [ "sim_cycles_geomean"; "code_kb_total" ];
      let t = go true in
      check (name ^ ": traced run has no failures") (t.Bench.failed = 0);
      check (name ^ ": traced counts repeat") (t.Bench.counts = a.Bench.counts);
      check (name ^ ": every per-layer metric")
        (List.map (fun (x : Bench.metric) -> x.Bench.name) t.Bench.metrics = per_layer_names);
      Printf.printf "%s: %d attempted, counts %s\n%!" name a.Bench.attempted
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) a.Bench.counts)))
    workloads;
  Bench.Probe.stop ();
  List.iter
    (fun (short, input) ->
      let w = Suite.find_exn short in
      let p = Epic_frontend.Lower.compile_source w.Workload.source in
      let code, out, _ = Epic_ir.Interp.run p (Bench.input_of w input) in
      check
        (Printf.sprintf "expected output of %s/%s" short (Bench.input_name input))
        (Expected.find short (Bench.input_name input) = Some (code, out)))
    [ ("mcf", Bench.Train); ("mcf", Bench.Reference); ("gap", Bench.Train); ("perlbmk", Bench.Train) ];
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
