(* Shared pieces of the benchmark: clocks and allocation counters, summary
   statistics, the seeded shuffle, the request-level checks every workload
   applies, and the result record every workload returns. *)

open Epic_workloads

let now = Unix.gettimeofday

(* Words this domain has allocated so far: minor-heap words (read exactly)
   plus words allocated directly in the major heap.  [promoted_words] are
   already counted as minor words, so they are taken out of [major_words]. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Peak resident set size in MB (VmHWM of this process). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* [quantile q xs] by linear interpolation between closest ranks; [q] in
   [0, 1].  0 for an empty array. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0. xs

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Fisher-Yates with the benchmark's own generator: the seed decides every
   order the workloads send their requests in. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- calibrated time ---------------------------------------------------

   The benchmark runs on shared virtual machines whose cores change speed
   by up to a factor of two within seconds, as other tenants load the
   same physical core; wall times of one workload moved by 15-40% between
   runs of identical code.  So every time the benchmark reports is
   calibrated.  While a run measures, a timer signal interrupts it every
   [probe_period_s] and runs a fixed probe kernel on the same core; the
   probe's duration over [probe_nominal_s], its duration on an unloaded
   core, is the slowdown at that moment.  A unit of work's calibrated time
   is its wall time, less the probes that ran inside it, divided by the
   mean slowdown the probes during it (and the nearest ones around it)
   saw.  It reads as seconds on an unloaded core of the reference host (an
   Intel Xeon VM with two vCPUs and OCaml 5.1.1).  The probe allocates the
   way the program does, so it slows down with it; its allocations are
   kept out of every word count. *)

let probe_kernel () =
  let h = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 0 to 30000 do
    let k = (i * 7919) land 1023 in
    (match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h k i);
    acc := !acc + List.length [ i; k; !acc ]
  done;
  !acc

let probe_nominal_s = 1.1e-3
let probe_period_s = 0.05

module Probe = struct
  let log : (float * float) list ref = ref []  (* (start, duration), latest first *)
  let count = ref 0
  let cached = ref [||]

  (* words the probes allocated, in total and in the minor heap *)
  let alloc_words = ref 0.
  let alloc_minor = ref 0.

  let running = ref false

  (* a signal arriving while a probe runs is dropped, not nested *)
  let run () =
    if not !running then begin
      running := true;
      let w0 = words () and m0 = Gc.minor_words () and t0 = now () in
      ignore (Sys.opaque_identity (probe_kernel ()));
      let t1 = now () in
      log := (t0, t1 -. t0) :: !log;
      incr count;
      alloc_words := !alloc_words +. (words () -. w0);
      alloc_minor := !alloc_minor +. (Gc.minor_words () -. m0);
      running := false
    end

  let start () =
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> run ()));
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = probe_period_s; it_value = probe_period_s })

  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm Sys.Signal_default

  let all () =
    if Array.length !cached <> !count then cached := Array.of_list (List.rev !log);
    !cached

  (* the first probe starting at or after [t] *)
  let first_from p t =
    let lo = ref 0 and hi = ref (Array.length p) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst p.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo

  (* [calibrate t0 t1]: the calibrated length of the wall-clock interval
     [t0, t1].  Without probes (probing not started) it is the wall
     time. *)
  let calibrate t0 t1 =
    let p = all () in
    let n = Array.length p in
    if n = 0 then t1 -. t0
    else begin
      let lo = first_from p (t0 -. probe_period_s) in
      let hi = first_from p (t1 +. probe_period_s) - 1 in
      let lo, hi = if lo <= hi then (lo, hi) else (min lo (n - 1), min lo (n - 1)) in
      let busy = ref 0. and d = ref 0. in
      for i = lo to hi do
        let start, dur = p.(i) in
        if start >= t0 && start +. dur <= t1 then busy := !busy +. dur;
        d := !d +. dur
      done;
      let mean = !d /. float_of_int (hi - lo + 1) in
      (t1 -. t0 -. !busy) *. probe_nominal_s /. mean
    end

  (* Median slowdown over the run so far: how loaded the core was. *)
  let slowdown () = median (Array.map snd (all ())) /. probe_nominal_s
end

(* Units of timed work: their calibrated times and allocated words. *)
module Clock = struct
  type t = { mutable units : (float * float) list; mutable n : int; mutable cached : (float * float) array }

  let create () = { units = []; n = 0; cached = [||] }

  (* [time c f] runs [f] as the clock's next unit of work and returns its
     result, its index and the words it allocated. *)
  let time c f =
    let pw = !Probe.alloc_words and w0 = words () and t0 = now () in
    let r = f () in
    let t1 = now () in
    let dw = words () -. w0 -. (!Probe.alloc_words -. pw) in
    c.units <- (t0, t1) :: c.units;
    c.n <- c.n + 1;
    (r, c.n - 1, dw)

  let n c = c.n

  (* The calibrated time of unit [i]. *)
  let cal c i =
    if Array.length c.cached <> c.n then c.cached <- Array.of_list (List.rev c.units);
    let t0, t1 = c.cached.(i) in
    Probe.calibrate t0 t1

  let cal_sum c first n =
    let s = ref 0. in
    for i = first to first + n - 1 do
      s := !s +. cal c i
    done;
    !s
end

(* An untraced run sets up at least [setup_repeats] times, and until set-up
   has taken [setup_min_s] in all, so that a set-up of a few milliseconds
   is many samples spread over several core-speed episodes; [setup_s] is
   the median. *)
let setup_repeats = 3
let setup_min_s = 0.5

(* [median_setup ~trace clock f] runs [f] as above (once when [trace],
   which reports no set-up time) and returns the median calibrated set-up
   time -- [f] times all its work as units of [clock] -- and the last
   result; earlier results are dropped before the next set-up starts, so
   at most one is alive at a time. *)
let median_setup ~trace clock f =
  let times = ref [] and last = ref None and t0 = now () in
  while
    !times = []
    || ((not trace) && (List.length !times < setup_repeats || now () -. t0 < setup_min_s))
  do
    last := None;
    let first = Clock.n clock in
    let r = f () in
    times := Clock.cal_sum clock first (Clock.n clock - first) :: !times;
    last := Some r
  done;
  (median (Array.of_list !times), Option.get !last)

(* ---- the workloads' shared inputs ------------------------------------- *)

(* The six sources whose ILP-CS compiles are cheap; sim-matrix and
   serve-mix build on them. *)
let cheap = [ "gzip"; "mcf"; "twolf"; "vortex"; "gap"; "bzip2" ]

let config w level = Epic_core.Experiments.config_for w level

(* ILP-CS cycles on the reference input, fixed since the simulator's
   timing model last changed; a mismatch is a failed operation. *)
let pinned_ilpcs_cycles =
  [ ("gzip", 2102411.); ("twolf", 442365.); ("vortex", 638553.) ]

type input_kind = Train | Reference | Big

let input_name = function
  | Train -> "train"
  | Reference -> "reference"
  | Big -> "big"

let input_of (w : Workload.t) = function
  | Train -> w.Workload.train
  | Reference -> w.Workload.reference
  | Big -> Option.get w.Workload.big_reference

(* [output_ok w kind (code, out)]: the program's exit code and output equal
   the reference interpreter's (see {!Expected}). *)
let output_ok (w : Workload.t) kind (code, out) =
  match Expected.find w.Workload.short (input_name kind) with
  | Some (c, o) -> c = code && o = out
  | None -> false

(* ILP-CS reference cycles must equal the pinned value where one exists. *)
let cycles_ok (w : Workload.t) level kind cycles =
  level <> Epic_core.Config.ILP_CS
  || kind <> Reference
  ||
  match List.assoc_opt w.Workload.short pinned_ilpcs_cycles with
  | Some c -> c = cycles
  | None -> true

(* ---- results ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  counts : (string * int) list;
      (** deterministic counts: for one seed they repeat exactly *)
}

let m name value unit_ = { name; value; unit_ }

let metric_json (x : metric) =
  ( x.name,
    Epic_obs.Json.Obj
      [ ("value", Epic_obs.Json.Float x.value); ("unit", Epic_obs.Json.Str x.unit_) ] )
