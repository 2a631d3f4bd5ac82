(* In-memory spans for the traced run.  The benchmark opens a span around
   each call it makes into a layer's public functions; nothing inside the
   program is instrumented.  Spans are kept in memory and written out once,
   when the run ends.  A disabled recorder calls straight through. *)

module Json = Epic_obs.Json

type span = {
  id : int;
  name : string;
  mutable tag : string;  (** e.g. hit / miss, or a simulation mode *)
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, -1 outside requests *)
  start : float;  (** seconds since the recorder was created *)
  mutable stop : float;
  mutable minor_words : float;
  mutable major_words : float;  (** allocated directly in the major heap *)
  mutable n : int;  (** work done: groups simulated, response bytes *)
  synthetic : bool;
      (** laid out from a pass record (a duration measured by the program);
          its start is placed after its previous sibling and it carries no
          allocation counts *)
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list;  (** most recent first *)
  mutable next : int;
  mutable stack : span list;  (** open spans, innermost first *)
}

let create ~enabled =
  { enabled; origin = Bench.now (); spans = []; next = 0; stack = [] }

(* The absolute time of an offset in the recorder's timeline. *)
let absolute t offset = t.origin +. offset

let open_span t ?req ~synthetic ~start name =
  let parent, inherited =
    match t.stack with [] -> (-1, -1) | p :: _ -> (p.id, p.req)
  in
  let s =
    {
      id = t.next;
      name;
      tag = "";
      parent;
      req = Option.value ~default:inherited req;
      start;
      stop = start;
      minor_words = 0.;
      major_words = 0.;
      n = 0;
      synthetic;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

(* Words allocated so far outside the calibration probes: in the minor
   heap, and directly in the major heap. *)
let minor () = Gc.minor_words () -. !Bench.Probe.alloc_minor

let major () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words -. (!Bench.Probe.alloc_words -. !Bench.Probe.alloc_minor)

(* [with_span t ?req ?tag ?count name f] runs [f] inside a span; [tag]
   labels the span from [f]'s result (a cache hit or miss, say) and [count]
   records the work it did. *)
let with_span t ?req ?tag ?count name f =
  if not t.enabled then f ()
  else begin
    let s = open_span t ?req ~synthetic:false ~start:(Bench.now () -. t.origin) name in
    t.stack <- s :: t.stack;
    let mi0 = minor () and ma0 = major () in
    let close () =
      s.stop <- Bench.now () -. t.origin;
      s.minor_words <- minor () -. mi0;
      s.major_words <- major () -. ma0;
      t.stack <- List.tl t.stack
    in
    match f () with
    | r ->
        close ();
        Option.iter (fun tag -> s.tag <- tag r) tag;
        Option.iter (fun count -> s.n <- count r) count;
        r
    | exception e ->
        close ();
        s.tag <- "raised";
        raise e
  end

(* Children of the innermost open span from durations the program measured
   itself (the driver's per-pass records), placed end to end from its
   start. *)
let add_measured t (parts : (string * float) list) =
  match t.stack with
  | [] -> ()
  | p :: _ when t.enabled ->
      ignore
        (List.fold_left
           (fun start (name, dur) ->
             let s = open_span t ~synthetic:true ~start name in
             s.stop <- start +. dur;
             s.stop)
           p.start parts)
  | _ -> ()

(* Every span in creation order, each with its self words: its own minus
   its children's. *)
type summary = { s : span; self_words : float }

let words s = s.minor_words +. s.major_words

let summaries t =
  let spans = Array.of_list (List.rev t.spans) in
  let child_w = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child_w.(s.parent) <- child_w.(s.parent) +. words s)
    spans;
  Array.mapi (fun i s -> { s; self_words = words s -. child_w.(i) }) spans

let count t = t.next

let to_json t ~workload ~seed =
  let span_json s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("name", Json.Str s.name);
        ("tag", Json.Str s.tag);
        ("parent", Json.Int s.parent);
        ("req", Json.Int s.req);
        ("start_s", Json.Float s.start);
        ("end_s", Json.Float s.stop);
        ("minor_words", Json.Float s.minor_words);
        ("major_words", Json.Float s.major_words);
        ("n", Json.Int s.n);
        ("synthetic", Json.Bool s.synthetic);
      ]
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("spans", Json.List (List.rev_map span_json t.spans));
    ]

(* Written once, at the end of the run. *)
let write t ~file ~workload ~seed =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t ~workload ~seed));
      output_char oc '\n')
