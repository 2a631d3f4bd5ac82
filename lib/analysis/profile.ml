(* Control-flow profiling (Figure 4's "control flow profiling" phase): run
   the program under the high-level interpreter on a training input and
   annotate the IR in place — block entry counts, branch execution counts and
   taken probabilities, and per-site indirect call target histograms used by
   indirect call specialization. *)

open Epic_ir

type t = {
  block_counts : (string * string, float) Hashtbl.t; (* (func, label) -> count *)
  branch_exec : (int, float) Hashtbl.t; (* instr id -> executions *)
  branch_taken : (int, float) Hashtbl.t; (* instr id -> taken count *)
  indirect_targets : (int, (string, float) Hashtbl.t) Hashtbl.t;
  call_counts : (string, float) Hashtbl.t; (* callee -> dynamic calls *)
  mutable train_executed : int;
}

let create () =
  {
    block_counts = Hashtbl.create 256;
    branch_exec = Hashtbl.create 256;
    branch_taken = Hashtbl.create 256;
    indirect_targets = Hashtbl.create 16;
    call_counts = Hashtbl.create 64;
    train_executed = 0;
  }

(* Event counters for [collect]: a hit increments an [int ref] in place, so
   counting allocates nothing; only a key's first event allocates its
   counter.  Keys are remembered in first-event order, and the float tables
   of [t] are built from them after the run: the same keys, inserted in the
   same order, as adding [1.] per event would have produced.  Counts are
   exact integers far below 2^53, so the floats are equal too. *)
type 'k counter = { tbl : ('k, int ref) Hashtbl.t; mutable order : ('k * int ref) list }

let counter n = { tbl = Hashtbl.create n; order = [] }

let count c key =
  match Hashtbl.find c.tbl key with
  | r -> incr r
  | exception Not_found ->
      let r = ref 1 in
      Hashtbl.add c.tbl key r;
      c.order <- (key, r) :: c.order

let to_floats order tbl =
  List.iter (fun (k, r) -> Hashtbl.replace tbl k (float_of_int !r)) (List.rev order)

let find_or_add tbl key make =
  match Hashtbl.find tbl key with
  | v -> v
  | exception Not_found ->
      let v = make () in
      Hashtbl.add tbl key v;
      v

(* Run the program on [input] and collect counts.  Returns the profile and
   the program's (exit code, output) for sanity checking. *)
let collect (p : Program.t) (input : int64 array) =
  let prof = create () in
  (* Block entries are counted per function, in a label table found through
     a memo on the physical function-name string: an entry in the same
     function as the previous one costs one label lookup.  [block_order]
     keeps the (function, label) first-event order. *)
  let per_func : (string, (string, int ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let block_order = ref [] in
  let last_name = ref "\000" and last = ref (Hashtbl.create 1) in
  let branch_exec = counter 256 and branch_taken = counter 256 in
  let calls = counter 64 in
  let sites : (int, string counter) Hashtbl.t = Hashtbl.create 16 in
  let site_order = ref [] in
  let hooks =
    {
      Interp.on_block =
        (fun f b ->
          let name = f.Func.name in
          if not (!last_name == name) then begin
            last := find_or_add per_func name (fun () -> Hashtbl.create 16);
            last_name := name
          end;
          let label = b.Block.label in
          match Hashtbl.find !last label with
          | r -> incr r
          | exception Not_found ->
              let r = ref 1 in
              Hashtbl.add !last label r;
              block_order := ((name, label), r) :: !block_order);
      on_branch =
        (fun _ i taken ->
          count branch_exec i.Instr.id;
          if taken then count branch_taken i.Instr.id);
      on_call = (fun callee -> count calls callee);
      on_indirect =
        (fun i callee ->
          let site = i.Instr.id in
          count
            (find_or_add sites site (fun () ->
                 let c = counter 4 in
                 site_order := (site, c) :: !site_order;
                 c))
            callee);
    }
  in
  let code, out, st = Interp.run ~hooks p input in
  to_floats !block_order prof.block_counts;
  to_floats branch_exec.order prof.branch_exec;
  to_floats branch_taken.order prof.branch_taken;
  to_floats calls.order prof.call_counts;
  List.iter
    (fun (site, c) ->
      let tbl = Hashtbl.create 4 in
      to_floats c.order tbl;
      Hashtbl.replace prof.indirect_targets site tbl)
    (List.rev !site_order);
  prof.train_executed <- st.Interp.executed;
  (prof, code, out)

(* Write the collected counts into the IR's weight/probability attributes. *)
let annotate (p : Program.t) (prof : t) =
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          let w =
            match Hashtbl.find_opt prof.block_counts (f.Func.name, b.Block.label) with
            | Some c -> c
            | None -> 0.
          in
          b.Block.weight <- w;
          List.iter
            (fun (i : Instr.t) ->
              i.Instr.attrs.Instr.weight <- w;
              if i.Instr.op = Opcode.Br then begin
                let e =
                  match Hashtbl.find_opt prof.branch_exec i.Instr.id with
                  | Some c -> c
                  | None -> 0.
                in
                let t =
                  match Hashtbl.find_opt prof.branch_taken i.Instr.id with
                  | Some c -> c
                  | None -> 0.
                in
                i.Instr.attrs.Instr.weight <- e;
                i.Instr.attrs.Instr.taken_prob <- (if e > 0. then t /. e else 0.)
              end)
            b.Block.instrs)
        f.Func.blocks)
    p.Program.funcs

(* One-step convenience: profile on [input] and annotate. *)
let profile_and_annotate (p : Program.t) (input : int64 array) =
  let prof, _, _ = collect p input in
  annotate p prof;
  prof

(* Dominant target of an indirect call site: [Some (callee, fraction)] when
   one target receives at least [threshold] of the calls. *)
let dominant_target (prof : t) (site : int) ~threshold =
  match Hashtbl.find_opt prof.indirect_targets site with
  | None -> None
  | Some tbl ->
      let total = Hashtbl.fold (fun _ c acc -> acc +. c) tbl 0. in
      if total <= 0. then None
      else
        let best, best_c =
          Hashtbl.fold
            (fun f c ((_, bc) as acc) -> if c > bc then (f, c) else acc)
            tbl ("", 0.)
        in
        if best_c /. total >= threshold then Some (best, best_c /. total)
        else None

(* After structural transformation the CFG changes; weights are re-derived by
   rerunning the profile.  For the copies created by duplication we fall back
   on scaling the origin instruction's weight; this helper re-annotates a
   transformed program from a fresh run. *)
let reprofile (p : Program.t) (input : int64 array) =
  ignore (profile_and_annotate p input)
