(* The benchmark's command line:

     dune exec perfbench/main.exe -- --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (compile-cold, sim-matrix or serve-mix) from the root
   of the repository and prints, as its last line, one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   untraced, the per-layer metrics traced.  The line before it carries the
   run's deterministic counts.  A traced run also writes its spans to
   perfbench/_spans/WORKLOAD-SEED.json. *)

open Perfbench
module Json = Epic_obs.Json

let workloads =
  [
    ("compile-cold", Compile_cold.run ?small:None);
    ("sim-matrix", Sim_matrix.run ?small:None);
    ("serve-mix", Serve_mix.run ?small:None);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (compile-cold|sim-matrix|serve-mix) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME the workload to run");
      ("--seed", Arg.Set_int seed, "N the seed of the inputs");
      ("--seconds", Arg.Set_int seconds, "S the size of the timed phase, in seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run");
    ]
    (fun _ -> usage ())
    "perfbench";
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let spans_file = Printf.sprintf "perfbench/_spans/%s-%d.json" !workload !seed in
  Bench.Probe.start ();
  let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~spans_file () in
  Bench.Probe.stop ();
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str !workload);
            ("seed", Json.Int !seed);
            ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.Bench.counts));
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.Bench.failed = 0));
            ("attempted", Json.Int r.Bench.attempted);
            ("failed", Json.Int r.Bench.failed);
            ("metrics", Json.Obj (List.map Bench.metric_json r.Bench.metrics));
          ]))
