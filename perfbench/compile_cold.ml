(* compile-cold: a fresh session (epicd's defaults) sends one
   Session.compile_and_run per SPEC stand-in at ILP-CS, in suite order, on
   the reference input, with the session's reference-interpreter check.
   Nothing is cached before the first request, so this is the cost of
   reproducing the paper's headline column from nothing; the session
   caches are written, never read.  IR interpretation (profile train runs,
   inlining, the reference check) and the pass pipeline do most of the
   work.  The inputs are the suite itself, so the seed changes nothing
   here: the order alone moved the time by 10%, through the heap the
   earlier compiles leave behind. *)

open Epic_workloads
open Bench
module Session = Epic_serve.Session
module Config = Epic_core.Config

(* One pass over every program takes about this long on an unloaded core
   of the reference host (19 calibrated seconds, 30 raw); [--seconds] buys
   whole passes. *)
let pass_seconds = 30

let programs ~small =
  if small then List.map Suite.find_exn [ "mcf"; "gap" ] else Suite.all

let new_session () =
  Session.create ~jobs:1 ~compile_capacity:64 ~run_capacity:256 ()

(* Set-up: a fresh session, and every request's source must lower before
   the timed phase starts. *)
let setup clock ws =
  let s, _, _ = Clock.time clock new_session in
  List.iter
    (fun (w : Workload.t) ->
      ignore (Clock.time clock (fun () -> Epic_frontend.Lower.compile_source w.Workload.source)))
    ws;
  s

let request_args (w : Workload.t) =
  (Bench.config w Config.ILP_CS, w.Workload.train, w.Workload.reference)

(* The traced path: compile_and_run unrolled into its three session calls,
   each in a span, with the driver's pass records as children of the
   compile span.  A probe span times the frontend on its own. *)
let traced_request tr s (w : Workload.t) =
  let config, train, input = request_args w in
  let source = w.Workload.source in
  let hit_tag hit = if hit then "hit" else "miss" in
  ignore
    (Span.with_span tr "frontend.lower" (fun () ->
         Epic_frontend.Lower.compile_source source));
  let compiled, key, compile_hit =
    Span.with_span tr ~tag:(fun (_, _, h) -> hit_tag h) "compile" (fun () ->
        let ((c, _, hit) as r) = Session.compile s ~config ~desc:None ~train source in
        if not hit then
          Span.add_measured tr (Layers.pass_parts c);
        r)
  in
  let reference, _ =
    Span.with_span tr ~tag:(fun (_, h) -> hit_tag h) "reference" (fun () ->
        Session.reference s ~source ~input)
  in
  let outcome, run_hit =
    Span.with_span tr
      ~tag:(fun (_, h) -> if h then "hit" else "detail")
      ~count:(fun ((o : Session.outcome), _) -> o.Session.o_metrics.Epic_core.Metrics.groups)
      "run"
      (fun () -> Session.run s ~workload:w.Workload.short ~reference ~key compiled input)
  in
  {
    Session.s_outcome = outcome;
    s_key = key;
    s_compile_hit = compile_hit;
    s_run_hit = run_hit;
  }

let request s (w : Workload.t) =
  let config, train, input = request_args w in
  Session.compile_and_run s ~workload:w.Workload.short ~config ~desc:None ~train
    ~input w.Workload.source

type served = {
  w : Workload.t;
  out : Session.served;
  cal : float;  (** calibrated time *)
  dw : float;
}

(* One pass: a fresh session, every program once. *)
let pass ?tr clock order =
  let s = new_session () in
  let one i (w : Workload.t) =
    Clock.time clock (fun () ->
        match tr with
        | None -> request s w
        | Some tr ->
            Span.with_span tr ~req:i ~tag:(fun _ -> "miss") "request" (fun () ->
                traced_request tr s w))
  in
  let ran = Array.mapi one order in
  let served =
    Array.map2 (fun w (out, id, dw) -> { w; out; cal = Clock.cal clock id; dw }) order ran
  in
  (served, Session.stats s)

let ok (r : served) =
  let o = r.out.Session.s_outcome in
  let mx = o.Session.o_metrics in
  mx.Epic_core.Metrics.output_matches
  && output_ok r.w Reference (o.Session.o_code, o.Session.o_output)
  && cycles_ok r.w Config.ILP_CS Reference mx.Epic_core.Metrics.cycles

let doc (r : served) =
  Epic_obs.Json.to_string
    (Epic_core.Export.normalize_time
       (Epic_core.Export.run_to_json r.out.Session.s_outcome.Session.o_metrics))

let run ?(small = false) ~seed ~seconds ~trace ~spans_file () =
  let ws = programs ~small in
  let passes = max 1 (seconds / pass_seconds) in
  let orders = List.init passes (fun _ -> Array.of_list ws) in
  let clock = Clock.create () in
  (* traced, the pass with spans runs first: warm-up then favours the
     untraced pass, so the overhead is not understated *)
  let tr = Span.create ~enabled:trace in
  let traced = if trace then Some (pass ~tr clock (List.hd orders)) else None in
  let setup_s, _ = median_setup ~trace clock (fun () -> setup clock ws) in
  let results = List.map (fun order -> fst (pass clock order)) orders in
  let all = Array.concat results in
  let failed = Array.fold_left (fun a r -> if ok r then a else a + 1) 0 all in
  let first = List.hd results in
  let distinct = Array.to_list first in
  let cycles =
    List.map (fun r -> r.out.Session.s_outcome.Session.o_metrics.Epic_core.Metrics.cycles) distinct
  in
  let code_bytes =
    List.fold_left
      (fun a r ->
        a
        + r.out.Session.s_outcome.Session.o_metrics.Epic_core.Metrics.stats
            .Epic_core.Driver.code_bytes)
      0 distinct
  in
  let pass_time = Array.of_list (List.map (fun rs -> sum (Array.map (fun r -> r.cal) rs)) results) in
  let pass_words = Array.of_list (List.map (fun rs -> sum (Array.map (fun r -> r.dw) rs)) results) in
  let counts =
    [
      ("requests", Array.length all);
      ("passes", passes);
      ("cycles_total", int_of_float (List.fold_left ( +. ) 0. cycles));
      ("code_bytes", code_bytes);
    ]
  in
  if not trace then
    {
      attempted = Array.length all;
      failed;
      counts;
      metrics =
        [
          m "wall_cal_s" (median pass_time) "s";
          m "setup_s" setup_s "s";
          m "peak_rss_mb" (peak_rss_mb ()) "MB";
          m "alloc_mwords" (median pass_words /. 1e6) "Mwords";
          m "sim_cycles_geomean" (geomean cycles /. 1e6) "Mcycles";
          m "code_kb_total" (float_of_int code_bytes /. 1024.) "KB";
          m "req_p50_ms" (median (Array.map (fun r -> r.cal *. 1e3) all)) "ms";
        ];
    }
  else begin
    (* the difference in calibrated time between the traced pass and the
       first untraced pass is the tracing overhead *)
    let traced, stats = Option.get traced in
    let traced_failed = Array.fold_left (fun a r -> if ok r then a else a + 1) 0 traced in
    (* the unrolled path must produce the same document as compile_and_run *)
    let same = doc traced.(0) = doc first.(0) in
    Span.write tr ~file:spans_file ~workload:"compile-cold" ~seed;
    let traffic =
      {
        Layers.no_traffic with
        Layers.compile_misses = stats.Session.st_compile_misses;
        run_misses = stats.Session.st_run_misses;
        ref_misses = stats.Session.st_ref_misses;
      }
    in
    {
      attempted = Array.length all + Array.length traced + 1;
      failed = failed + traced_failed + (if same then 0 else 1);
      counts;
      metrics =
        Layers.metrics tr ~traffic
          ~untraced_s:(sum (Array.map (fun r -> r.cal) first))
          ~traced_s:(sum (Array.map (fun r -> r.cal) traced));
    }
  end
