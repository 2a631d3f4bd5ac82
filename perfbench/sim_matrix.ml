(* sim-matrix: all timed work is lib/sim.  Set-up compiles GCC-level
   binaries of every workload and ILP-CS binaries of the six cheap ones.
   The timed phase runs each binary on its reference input through
   Driver.run three ways -- detailed, sampled (Sampling.default_plan) and
   fused with one fixed eight-experiment category set -- plus gzip and mcf
   at ILP-CS on their big inputs (about ten times the working set against
   the modelled caches), detailed and sampled.  The seed decides the order
   of the cells. *)

open Epic_workloads
open Bench
module Config = Epic_core.Config
module Driver = Epic_core.Driver
module Accounting = Epic_sim.Accounting

(* One round of the matrix takes about this long on an unloaded core of
   the reference host (8 calibrated seconds, 13 raw); [--seconds] buys
   whole rounds. *)
let round_seconds = 15

type mode = Detail | Sampled | Fused

let mode_name = function Detail -> "detail" | Sampled -> "sampled" | Fused -> "fused"

(* Every stall category sped up by half: the fused run carries eight
   virtual-speedup experiments alongside the real accounting. *)
let experiments =
  List.filter_map
    (fun c ->
      if c = Accounting.Unstalled then None
      else Some { Accounting.target = Accounting.Target_category c; speedup = 0.5 })
    Accounting.all_categories

type binary = { w : Workload.t; level : Config.level; c : Driver.compiled }
type cell = { b : binary; kind : input_kind; mode : mode }

let binaries_of ~small =
  let all = if small then List.map Suite.find_exn [ "mcf"; "gap" ] else Suite.all in
  let ilp = if small then all else List.map Suite.find_exn cheap in
  List.map (fun w -> (w, Config.Gcc_like)) all
  @ List.map (fun w -> (w, Config.ILP_CS)) ilp

let compile ?tr clock (w, level) =
  let compile () =
    Driver.compile ~config:(Bench.config w level) ~train:w.Workload.train w.Workload.source
  in
  let c, _, _ =
    Clock.time clock (fun () ->
        match tr with
        | None -> compile ()
        | Some tr ->
            Span.with_span tr ~tag:(fun _ -> "miss") "compile" (fun () ->
                let c = compile () in
                Span.add_measured tr (Layers.pass_parts c);
                c))
  in
  { w; level; c }

let cells_of ~small binaries =
  List.concat_map
    (fun b -> List.map (fun mode -> { b; kind = Reference; mode }) [ Detail; Sampled; Fused ])
    binaries
  @ List.concat_map
      (fun b ->
        if (not small) && b.level = Config.ILP_CS && List.mem b.w.Workload.short [ "gzip"; "mcf" ]
        then List.map (fun mode -> { b; kind = Big; mode }) [ Detail; Sampled ]
        else [])
      binaries

type ran = {
  cell : cell;
  code : int;
  out : string;
  cycles : float;  (** the accounting total: estimated when sampled *)
  groups : int;
  id : int;  (** the clock's unit *)
  dw : float;
  doc : string option;
      (** the first cell's normalized run document, for the traced-vs-untraced
          comparison *)
}

let simulate cell =
  let input = input_of cell.b.w cell.kind in
  match cell.mode with
  | Detail -> Driver.run cell.b.c input
  | Sampled -> Driver.run ~sampling:Epic_sim.Sampling.default_plan cell.b.c input
  | Fused -> Driver.run ~experiments cell.b.c input

let run_cell ?tr clock i cell =
  let (code, out, st), id, dw =
    Clock.time clock (fun () ->
        match tr with
        | None -> simulate cell
        | Some tr ->
            Span.with_span tr ~req:i
              ~tag:(fun _ -> mode_name cell.mode)
              ~count:(fun (_, _, st) -> st.Epic_sim.Machine.c.Epic_sim.Machine.groups)
              "run"
              (fun () -> simulate cell))
  in
  {
    cell;
    code;
    out;
    cycles = Accounting.total st.Epic_sim.Machine.acc;
    groups = st.Epic_sim.Machine.c.Epic_sim.Machine.groups;
    id;
    dw;
    doc =
      (if i > 0 then None
       else
         Some
           (Epic_obs.Json.to_string
              (Epic_core.Export.normalize_time
                 (Epic_core.Export.run_to_json
                    (Epic_core.Metrics.of_machine ~workload:cell.b.w.Workload.short cell.b.c
                       st ~output_matches:(output_ok cell.b.w cell.kind (code, out)))))));
  }

let round ?tr clock order = Array.mapi (run_cell ?tr clock) order

(* Every output equals the reference interpreter's; detailed ILP-CS cycles
   equal the pinned values; a fused run's own accounting is bitwise the
   detailed run's. *)
let failures (rs : ran array) =
  let detailed b kind =
    Array.to_list rs
    |> List.find_opt (fun r -> r.cell.b == b && r.cell.kind = kind && r.cell.mode = Detail)
  in
  Array.fold_left
    (fun a r ->
      let ok =
        output_ok r.cell.b.w r.cell.kind (r.code, r.out)
        && (r.cell.mode <> Detail || cycles_ok r.cell.b.w r.cell.b.level r.cell.kind r.cycles)
        && (r.cell.mode <> Fused
           ||
           match detailed r.cell.b r.cell.kind with
           | Some d -> d.cycles = r.cycles && d.groups = r.groups
           | None -> false)
      in
      if ok then a else a + 1)
    0 rs

let run ?(small = false) ~seed ~seconds ~trace ~spans_file () =
  let rounds = max 1 (seconds / round_seconds) in
  (* the seed's cell orders, one per round, as permutations of [n] cells *)
  let orders n =
    let rng = Random.State.make [| seed |] in
    List.init rounds (fun _ -> shuffle rng (Array.init n Fun.id))
  in
  let rounds_of cells = List.map (Array.map (fun i -> cells.(i))) (orders (Array.length cells)) in
  let clock = Clock.create () in
  (* traced, a set-up and a round with spans run first: warm-up then
     favours the untraced round, so the overhead is not understated *)
  let traced =
    if not trace then None
    else begin
      let tr = Span.create ~enabled:true in
      let binaries = List.map (compile ~tr clock) (binaries_of ~small) in
      let rs = round ~tr clock (List.hd (rounds_of (Array.of_list (cells_of ~small binaries)))) in
      Span.write tr ~file:spans_file ~workload:"sim-matrix" ~seed;
      Some (tr, rs)
    end
  in
  let setup_s, binaries =
    median_setup ~trace clock (fun () -> List.map (compile clock) (binaries_of ~small))
  in
  let cells = Array.of_list (cells_of ~small binaries) in
  let results = List.map (round clock) (rounds_of cells) in
  let all = Array.concat results in
  let failed = List.fold_left (fun a rs -> a + failures rs) 0 results in
  let first = List.hd results in
  let cal r = Clock.cal clock r.id in
  let round_time = Array.of_list (List.map (fun rs -> sum (Array.map cal rs)) results) in
  let round_words = Array.of_list (List.map (fun rs -> sum (Array.map (fun r -> r.dw) rs)) results) in
  let cycles = Array.to_list (Array.map (fun r -> r.cycles) first) in
  let code_bytes =
    List.fold_left
      (fun a b -> a + b.c.Driver.transform_stats.Driver.code_bytes)
      0 binaries
  in
  let counts =
    [
      ("cells", Array.length cells);
      ("rounds", rounds);
      ("groups_total", Array.fold_left (fun a r -> a + r.groups) 0 first);
      ("cycles_total", int_of_float (List.fold_left ( +. ) 0. cycles));
      ("code_bytes", code_bytes);
    ]
  in
  match traced with
  | None ->
      {
        attempted = Array.length all;
        failed;
        counts;
        metrics =
          [
            m "wall_cal_s" (median round_time) "s";
            m "setup_s" setup_s "s";
            m "peak_rss_mb" (peak_rss_mb ()) "MB";
            m "alloc_mwords" (median round_words /. 1e6) "Mwords";
            m "sim_cycles_geomean" (geomean cycles /. 1e6) "Mcycles";
            m "code_kb_total" (float_of_int code_bytes /. 1024.) "KB";
            m "req_p50_ms" (median (Array.map (fun r -> cal r *. 1e3) all)) "ms";
          ];
      }
  | Some (tr, traced) ->
      (* the traced round must simulate exactly what the untraced one did *)
      let same (a : ran) (b : ran) =
        a.code = b.code && a.out = b.out && a.cycles = b.cycles && a.doc = b.doc
      in
      let mismatches =
        Array.fold_left ( + ) 0 (Array.map2 (fun a b -> if same a b then 0 else 1) first traced)
      in
      {
        attempted = Array.length all + Array.length traced;
        failed = failed + failures traced + mismatches;
        counts;
        metrics =
          Layers.metrics tr ~traffic:Layers.no_traffic ~untraced_s:round_time.(0)
            ~traced_s:(sum (Array.map cal traced));
      }
