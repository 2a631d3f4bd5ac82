(* Per-layer metrics of a traced run, computed from its spans.  Every
   workload reports the whole list; a layer the workload does not exercise
   reads 0.  README.md maps each metric to the end-to-end metric it should
   move. *)

open Bench

let is_classical name = String.starts_with ~prefix:"classical" name

(* The library that owns each phase the driver records. *)
let pass_layer name =
  match name with
  | "frontend: parse+lower" -> "frontend"
  | "profile (train)" | "points-to analysis" -> "analysis"
  | "indirect-call specialization" | "inline" -> "opt"
  | "loop peeling" | "hyperblock formation" | "superblock formation"
  | "loop unrolling" | "height reduction" | "control speculation"
  | "data speculation" ->
      "ilp"
  | "cold-code sinking" | "register allocation" | "list scheduling"
  | "bundling and layout" ->
      "sched"
  | n when is_classical n -> "opt"
  | _ -> "other"

(* A compile's pass records as (name, seconds), for {!Span.add_measured}. *)
let pass_parts (c : Epic_core.Driver.compiled) =
  List.map
    (fun (p : Epic_obs.Passes.record) -> (p.Epic_obs.Passes.name, p.Epic_obs.Passes.wall_s))
    c.Epic_core.Driver.pass_records

(* Session cache traffic over the timed phase. *)
type traffic = {
  compile_hits : int;
  compile_misses : int;
  run_hits : int;
  run_misses : int;
  ref_hits : int;
  ref_misses : int;
  run_evictions : int;
}

let no_traffic =
  {
    compile_hits = 0;
    compile_misses = 0;
    run_hits = 0;
    run_misses = 0;
    ref_hits = 0;
    ref_misses = 0;
    run_evictions = 0;
  }

let traffic_between (a : Epic_serve.Session.stats) (b : Epic_serve.Session.stats) =
  let open Epic_serve.Session in
  {
    compile_hits = b.st_compile_hits - a.st_compile_hits;
    compile_misses = b.st_compile_misses - a.st_compile_misses;
    run_hits = b.st_run_hits - a.st_run_hits;
    run_misses = b.st_run_misses - a.st_run_misses;
    ref_hits = b.st_ref_hits - a.st_ref_hits;
    ref_misses = b.st_ref_misses - a.st_ref_misses;
    run_evictions = b.st_run_evictions - a.st_run_evictions;
  }

let ratio hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* [metrics spans ~traffic ~untraced_s ~traced_s]: span times are
   calibrated like every other time ({!Bench.Probe}); [untraced_s] and
   [traced_s] are the calibrated times of the same timed phase run without
   and with spans. *)
let metrics (rec_ : Span.t) ~traffic ~untraced_s ~traced_s =
  let all = Span.summaries rec_ in
  let cal (s : Span.span) =
    Probe.calibrate (Span.absolute rec_ s.Span.start) (Span.absolute rec_ s.Span.stop)
  in
  let pick p = List.filter p (Array.to_list all) in
  let named n (x : Span.summary) = x.Span.s.Span.name = n in
  let tagged n tag (x : Span.summary) = named n x && x.Span.s.Span.tag = tag in
  let total f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let dur (x : Span.summary) = cal x.Span.s in
  let words (x : Span.summary) = Span.words x.Span.s in
  let groups l = float_of_int (List.fold_left (fun a (x : Span.summary) -> a + x.Span.s.Span.n) 0 l) in
  let durs l = Array.of_list (List.map dur l) in
  let mw x = x /. 1e6 in
  (* pass records: the only synthetic spans, each a child of a compile *)
  let passes p = pick (fun x -> x.Span.s.Span.synthetic && p x.Span.s.Span.name) in
  let pass_s p = total dur (passes p) in
  let compiles = pick (tagged "compile" "miss") in
  let refs = pick (tagged "reference" "miss") in
  let runs mode = pick (tagged "run" mode) in
  let sims = runs "detail" @ runs "sampled" @ runs "fused" in
  let ns_per_group l =
    let g = groups l in
    if g = 0. then 0. else total dur l *. 1e9 /. g
  in
  let requests = pick (named "request") in
  let req_ms tag = durs (List.filter (fun (x : Span.summary) -> x.Span.s.Span.tag = tag) requests) in
  (* serve-layer work: request glue plus cache hits *)
  let serve =
    pick (fun x ->
        named "request" x
        || (x.Span.s.Span.tag = "hit"
           && List.mem x.Span.s.Span.name [ "compile"; "reference"; "run" ]))
  in
  let self_words l = total (fun (x : Span.summary) -> x.Span.self_words) l in
  let parses = pick (named "protocol.parse") in
  let executes = pick (named "protocol.execute") in
  let encodes = pick (named "encode") in
  let response_kb =
    Array.of_list
      (List.map (fun (x : Span.summary) -> float_of_int x.Span.s.Span.n /. 1024.) (executes @ encodes))
  in
  [
    m "frontend.lower_s" (total dur (pick (named "frontend.lower"))) "s";
    m "frontend.mwords" (mw (total words (pick (named "frontend.lower")))) "Mwords";
    m "analysis.profile_s" (pass_s (( = ) "profile (train)")) "s";
    m "analysis.points_to_s" (pass_s (( = ) "points-to analysis")) "s";
    m "opt.inline_s" (pass_s (( = ) "inline")) "s";
    m "opt.classical_s" (pass_s is_classical) "s";
    m "ilp.regions_s" (pass_s (fun n -> pass_layer n = "ilp")) "s";
    m "sched.backend_s" (pass_s (fun n -> pass_layer n = "sched")) "s";
    m "driver.unattributed_s" (total dur compiles -. pass_s (fun _ -> true)) "s";
    m "compile.mwords" (mw (total words compiles)) "Mwords";
    m "ir.reference_s" (total dur refs) "s";
    m "ir.reference_mwords" (mw (total words refs)) "Mwords";
    m "sim.detail_ns_per_group" (ns_per_group (runs "detail")) "ns";
    m "sim.sampled_ns_per_group" (ns_per_group (runs "sampled")) "ns";
    m "sim.fused_ns_per_group" (ns_per_group (runs "fused")) "ns";
    m "sim.words_per_group"
      (let g = groups (runs "detail") in
       if g = 0. then 0. else total words (runs "detail") /. g)
      "words";
    m "sim.groups" (groups sims) "count";
    m "sim.mwords" (mw (total words sims)) "Mwords";
    m "serve.compile_hit_ratio" (ratio traffic.compile_hits traffic.compile_misses) "ratio";
    m "serve.run_hit_ratio" (ratio traffic.run_hits traffic.run_misses) "ratio";
    m "serve.ref_hit_ratio" (ratio traffic.ref_hits traffic.ref_misses) "ratio";
    m "serve.run_evictions" (float_of_int traffic.run_evictions) "count";
    m "serve.hit_ms_p50" (median (req_ms "hit") *. 1e3) "ms";
    m "serve.miss_ms_p50" (median (req_ms "miss") *. 1e3) "ms";
    m "serve.req_p99_ms" (quantile 0.99 (durs requests) *. 1e3) "ms";
    m "serve.requests" (float_of_int (List.length requests)) "count";
    m "serve.mwords" (mw (self_words serve)) "Mwords";
    m "protocol.parse_us_p50" (median (durs parses) *. 1e6) "us";
    m "protocol.response_kb_p50" (median response_kb) "KB";
    m "protocol.mwords" (mw (total words parses +. self_words executes)) "Mwords";
    m "obs.encode_us_p50" (median (durs encodes) *. 1e6) "us";
    m "obs.mwords" (mw (total words encodes)) "Mwords";
    m "trace.spans" (float_of_int (Span.count rec_)) "count";
    m "host.slowdown_p50" (Probe.slowdown ()) "x";
    m "trace.overhead_pct"
      (if untraced_s > 0. then (traced_s -. untraced_s) /. untraced_s *. 100. else 0.)
      "%";
  ]
