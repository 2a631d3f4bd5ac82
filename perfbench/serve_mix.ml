(* serve-mix: a warm session sized like epicd fed JSON request lines through
   Protocol.parse and Protocol.execute -- epicd's per-line path without the
   socket -- by one client in a closed loop.

   The run key space is the six cheap sources x {gcc, ilp-cs} x {train,
   reference} x six sample periods x {detailed, sampled}: 288 keys against
   a 256-entry run cache, so hits, misses and evictions all occur.  Set-up
   sends each (source, level, input) once.  The timed traffic is a fixed
   multiset -- every key at least once, the rest Zipf-distributed over a
   fixed popularity order -- plus a few compile hits and stats requests;
   the seed decides the order.  Every key is touched on every seed, so the
   compulsory misses (and the simulated work behind them) do not depend on
   the seed; only the capacity misses do.  The hit path (key hashing, LRU,
   run-document JSON) sets the median and simulation misses the tail. *)

open Epic_workloads
open Bench
module Session = Epic_serve.Session
module Protocol = Epic_serve.Protocol
module Json = Epic_obs.Json
module Config = Epic_core.Config

(* Requests per second of [--seconds]: about 5% of them miss, and the
   misses take most of the time. *)
let requests_per_second = 260

let periods = [ 97; 0; 53; 151; 257; 401 ]
let levels = [ ("gcc", Config.Gcc_like); ("ilp-cs", Config.ILP_CS) ]

type key = {
  w : Workload.t;
  level : string * Config.level;
  kind : input_kind;
  period : int;
  sampled : bool;
}

type request = Run of key | Compile of Workload.t * (string * Config.level) | Stats

let sources ~small = List.map Suite.find_exn (if small then [ "mcf"; "gap" ] else cheap)

let keys ~small =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun level ->
          List.concat_map
            (fun kind ->
              List.concat_map
                (fun period ->
                  List.map (fun sampled -> { w; level; kind; period; sampled }) [ false; true ])
                (if small then [ 97; 0 ] else periods))
            [ Train; Reference ])
        levels)
    (sources ~small)

let ints a = Json.List (Array.to_list (Array.map (fun x -> Json.Int (Int64.to_int x)) a))

let run_fields k =
  [
    ("op", Json.Str "run");
    ("source", Json.Str k.w.Workload.source);
    ("level", Json.Str (fst k.level));
    ("workload", Json.Str k.w.Workload.short);
    ("train", ints k.w.Workload.train);
    ("input", ints (input_of k.w k.kind));
    ("sample_period", Json.Int k.period);
  ]
  @ if k.sampled then [ ("sampling", Json.Str "") ] else []

let line id req =
  let fields =
    match req with
    | Run k -> run_fields k
    | Compile (w, level) ->
        [
          ("op", Json.Str "compile");
          ("source", Json.Str w.Workload.source);
          ("level", Json.Str (fst level));
          ("train", ints w.Workload.train);
        ]
    | Stats -> [ ("op", Json.Str "stats") ]
  in
  Json.to_string (Json.Obj (("id", Json.Int id) :: fields))

(* The timed traffic for [n] requests: 95% runs (every key at least once,
   the rest Zipf(1.5) over a popularity order fixed independently of the
   seed; the steep tail keeps capacity misses few and steady across
   seeds), 4% compile requests spread evenly over the session's binaries,
   1% stats -- shuffled by the seed. *)
let traffic ~small ~rng n =
  let keys = Array.of_list (keys ~small) in
  let popular = shuffle (Random.State.make [| 0x5eed |]) keys in
  let nk = Array.length keys in
  let n_runs = max nk (n * 95 / 100) in
  let zipf = Array.init nk (fun i -> float_of_int (i + 1) ** -1.5) in
  let h = sum zipf in
  let extra = n_runs - nk in
  let runs =
    Array.to_list popular
    |> List.mapi (fun i k ->
           List.init (1 + int_of_float (float_of_int extra *. zipf.(i) /. h)) (fun _ -> Run k))
    |> List.concat
  in
  let binaries = List.concat_map (fun w -> List.map (fun l -> (w, l)) levels) (sources ~small) in
  let n_compile = n * 4 / 100 / List.length binaries in
  let compiles =
    List.concat_map (fun b -> List.init n_compile (fun _ -> Compile (fst b, snd b))) binaries
  in
  let stats = List.init (max 1 (n / 100)) (fun _ -> Stats) in
  shuffle rng (Array.of_list (runs @ compiles @ stats))

(* The traced path for a run request: compile_and_run unrolled into its
   session calls, and the response envelope encoded as Protocol.execute
   encodes it. *)
let traced_run tr s id k =
  let hit_tag hit = if hit then "hit" else "miss" in
  let config = Config.make (snd k.level) in
  let source = k.w.Workload.source and train = k.w.Workload.train in
  let input = input_of k.w k.kind in
  let sampling = if k.sampled then Some Epic_sim.Sampling.default_plan else None in
  let compiled, key, compile_hit =
    Span.with_span tr ~tag:(fun (_, _, h) -> hit_tag h) "compile" (fun () ->
        let ((c, _, hit) as r) = Session.compile s ~config ~desc:None ~train source in
        if not hit then Span.add_measured tr (Layers.pass_parts c);
        r)
  in
  let reference, _ =
    Span.with_span tr ~tag:(fun (_, h) -> hit_tag h) "reference" (fun () ->
        Session.reference s ~source ~input)
  in
  let outcome, run_hit =
    Span.with_span tr
      ~tag:(fun (_, h) -> if h then "hit" else if k.sampled then "sampled" else "detail")
      ~count:(fun ((o : Session.outcome), h) ->
        if h then 0 else o.Session.o_metrics.Epic_core.Metrics.groups)
      "run"
      (fun () ->
        Session.run s ?sampling ~sample_period:k.period ~workload:k.w.Workload.short
          ~reference ~key compiled input)
  in
  let resp =
    Span.with_span tr ~count:String.length "encode" (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Int id);
               ("ok", Json.Bool true);
               ("op", Json.Str "run");
               ("cached", Json.Bool run_hit);
               ("compile_cached", Json.Bool compile_hit);
               ("key", Json.Str key);
               ("exit_code", Json.Int outcome.Session.o_code);
               ("output", Json.Str outcome.Session.o_output);
               ("result", Epic_core.Export.run_to_json outcome.Session.o_metrics);
             ]))
  in
  (resp, run_hit)

(* Set-up: a session sized like epicd, sent each (source, level, input)
   once, detailed at the default sample period.  Traced, the requests take
   the unrolled path, so the compiles behind them show in the spans. *)
let setup ?tr clock ~small () =
  let s, _, _ =
    Clock.time clock (fun () ->
        Session.create ~jobs:1 ~compile_capacity:64 ~run_capacity:256 ())
  in
  let sent = ref 0 and failed = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun level ->
          List.iter
            (fun kind ->
              let k = { w; level; kind; period = Epic_core.Experiments.sample_period; sampled = false } in
              let line = line (-1) (Run k) in
              let resp, _, _ =
                Clock.time clock (fun () ->
                    match tr with
                    | None -> Protocol.execute s (Protocol.parse line)
                    | Some tr -> fst (traced_run tr s (-1) k))
              in
              incr sent;
              if not (String.starts_with ~prefix:"{\"id\":-1,\"ok\":true" resp) then incr failed)
            [ Train; Reference ])
        levels)
    (sources ~small);
  (s, !sent, !failed)

(* What the client takes from a response, parsed outside the timed calls:
   whether it passed the checks, and for a run the simulated cycles and
   the binary's code size. *)
type seen = { ok : bool; cycles : float; code_bytes : float; doc : string option }

let member path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

(* [check ~keep req resp]; [keep] asks for the normalized result document
   too, for the traced-vs-untraced comparison. *)
let check ~keep req resp =
  let failed = { ok = false; cycles = 0.; code_bytes = 0.; doc = None } in
  match Json.of_string resp with
  | Error _ -> failed
  | Ok j -> (
      let bool path = member path j = Some (Json.Bool true) in
      let num path = Option.value ~default:0. (Option.bind (member path j) Json.to_float_opt) in
      match req with
      | Run k ->
          let out =
            match (member [ "exit_code" ] j, member [ "output" ] j) with
            | Some (Json.Int c), Some (Json.Str o) -> Some (c, o)
            | _ -> None
          in
          {
            ok =
              bool [ "ok" ]
              && bool [ "result"; "output_matches" ]
              && Option.fold ~none:false ~some:(output_ok k.w k.kind) out;
            cycles = num [ "result"; "cycles" ];
            code_bytes = num [ "result"; "transform_stats"; "code_bytes" ];
            doc =
              (if keep then
                 Option.map
                   (fun d -> Json.to_string (Epic_core.Export.normalize_time d))
                   (member [ "result" ] j)
               else None);
          }
      | Compile _ | Stats -> { failed with ok = bool [ "ok" ] })

type served = { req : request; id : int;  (** the clock's unit *) dw : float; seen : seen }

(* The timed phase over [reqs]; [keep] is the index whose normalized result
   document is kept. *)
let timed ?tr clock s reqs lines ~keep =
  Array.mapi
    (fun i req ->
      let resp, id, dw =
        Clock.time clock @@ fun () ->
        match tr with
        | None -> Protocol.execute s (Protocol.parse lines.(i))
        | Some tr ->
            Span.with_span tr ~req:i ~tag:snd "request" (fun () ->
                let parsed =
                  Span.with_span tr "protocol.parse" (fun () -> Protocol.parse lines.(i))
                in
                match req with
                | Run k ->
                    let resp, hit = traced_run tr s i k in
                    (resp, if hit then "hit" else "miss")
                | Compile _ | Stats ->
                    ( Span.with_span tr ~count:String.length "protocol.execute" (fun () ->
                          Protocol.execute s parsed),
                      "" ))
            |> fst
      in
      { req; id; dw; seen = check ~keep:(i = keep) req resp })
    reqs

let run ?(small = false) ~seed ~seconds ~trace ~spans_file () =
  let rng = Random.State.make [| seed |] in
  let reqs = traffic ~small ~rng (requests_per_second * seconds) in
  let lines = Array.mapi line reqs in
  let keep =
    let rec first i = match reqs.(i) with Run _ -> i | _ -> first (i + 1) in
    first 0
  in
  let clock = Clock.create () in
  (* traced, a session with spans replays the traffic first: warm-up then
     favours the untraced session, so the overhead is not understated *)
  let traced =
    if not trace then None
    else begin
      let tr = Span.create ~enabled:true in
      let s, sent, failed = setup ~tr clock ~small () in
      let before = Session.stats s in
      let traced = timed ~tr clock s reqs lines ~keep in
      let traffic = Layers.traffic_between before (Session.stats s) in
      Span.write tr ~file:spans_file ~workload:"serve-mix" ~seed;
      Some (tr, traced, traffic, sent, failed)
    end
  in
  let setup_s, (s, setup_sent, setup_failed) = median_setup ~trace clock (setup clock ~small) in
  let before = Session.stats s in
  let served = timed clock s reqs lines ~keep in
  let traffic = Layers.traffic_between before (Session.stats s) in
  let failed =
    setup_failed + Array.fold_left (fun a r -> if r.seen.ok then a else a + 1) 0 served
  in
  (* per distinct key and binary: simulated cycles and code size *)
  let cycles = Hashtbl.create 512 and code = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      match r.req with
      | Run k ->
          Hashtbl.replace cycles k r.seen.cycles;
          Hashtbl.replace code (k.w.Workload.short, fst k.level) r.seen.code_bytes
      | _ -> ())
    served;
  let cycles = Hashtbl.fold (fun _ c a -> c :: a) cycles [] in
  let code_bytes = Hashtbl.fold (fun _ c a -> a +. c) code 0. in
  let count p = Array.fold_left (fun a r -> if p r then a + 1 else a) 0 served in
  let counts =
    [
      ("requests", Array.length reqs);
      ("run_requests", count (fun r -> match r.req with Run _ -> true | _ -> false));
      ("run_hits", traffic.Layers.run_hits);
      ("run_misses", traffic.Layers.run_misses);
      ("run_evictions", traffic.Layers.run_evictions);
      ("compile_hits", traffic.Layers.compile_hits);
      ("compile_misses", traffic.Layers.compile_misses);
      ("ref_hits", traffic.Layers.ref_hits);
      ("ref_misses", traffic.Layers.ref_misses);
      ("distinct_keys", List.length cycles);
      ("cycles_total", int_of_float (List.fold_left ( +. ) 0. cycles));
      ("code_bytes", int_of_float code_bytes);
    ]
  in
  let cal r = Clock.cal clock r.id in
  let time = sum (Array.map cal served) in
  match traced with
  | None ->
      {
        attempted = setup_sent + Array.length reqs;
        failed;
        counts;
        metrics =
          [
            m "wall_cal_s" time "s";
            m "setup_s" setup_s "s";
            m "peak_rss_mb" (peak_rss_mb ()) "MB";
            m "alloc_mwords" (sum (Array.map (fun r -> r.dw) served) /. 1e6) "Mwords";
            m "sim_cycles_geomean" (geomean (List.map (fun c -> c /. 1e6) cycles)) "Mcycles";
            m "code_kb_total" (code_bytes /. 1024.) "KB";
            m "req_p50_ms" (median (Array.map (fun r -> cal r *. 1e3) served)) "ms";
          ];
      }
  | Some (tr, traced, traffic2, setup2_sent, setup2_failed) ->
      let traced_failed =
        setup2_failed + Array.fold_left (fun a r -> if r.seen.ok then a else a + 1) 0 traced
      in
      (* the unrolled path must answer with the same document and cause the
         same cache traffic *)
      let same =
        served.(keep).seen.doc <> None && served.(keep).seen.doc = traced.(keep).seen.doc
      in
      {
        attempted = setup_sent + setup2_sent + (2 * Array.length reqs) + 1;
        failed = failed + traced_failed + (if same && traffic = traffic2 then 0 else 1);
        counts;
        metrics =
          Layers.metrics tr ~traffic:traffic2 ~untraced_s:time
            ~traced_s:(sum (Array.map cal traced));
      }
