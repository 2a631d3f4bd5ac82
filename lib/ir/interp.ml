(* High-level IR interpreter.  Executes the (virtual-register) IR directly,
   at any point of the compilation pipeline before register allocation.  It
   is the reference semantics for differential testing of transformations,
   and — instrumented through the [hooks] — the engine behind control-flow
   profiling (Section 3.1 of the paper).

   It models the pieces of IA-64 semantics the structural transforms rely on:
   predicated execution, NaT bits produced by control-speculative loads to
   invalid addresses, speculation checks, and compare types. *)

type value = Vi of int64 | Vf of float | Vp of bool | Vnat

exception Fault of string
exception Exit_program of int
exception Out_of_fuel

type hooks = {
  on_block : Func.t -> Block.t -> unit;
  on_branch : Func.t -> Instr.t -> bool -> unit; (* executed branch, taken? *)
  on_call : string -> unit;
  on_indirect : Instr.t -> string -> unit; (* indirect call site -> callee *)
}

let no_hooks =
  {
    on_block = (fun _ _ -> ());
    on_branch = (fun _ _ _ -> ());
    on_call = (fun _ -> ());
    on_indirect = (fun _ _ -> ());
  }

exception Call_depth_exceeded

(* Deepest call chain either executor will build (the machine enforces the
   same bound).  The deepest chain of the 12 suite workloads is 13 live
   calls (gcc's recursive descent; every other workload stays within 8),
   measured on train and reference inputs at every optimization level in
   both executors, including the compiler's profiling runs.  So the bound
   only ever stops runaway recursion, turning it into an exception while
   the frames and the host stack still take a few tens of MB. *)
let max_call_depth = 10_000

(* The frame's register file is flat (DESIGN.md §10): per-class arrays
   mirroring the simulator's frame, instead of a [value Reg.Tbl.t].  Values
   are coerced to the destination register's class at write time (with the
   same [as_int]/[as_float]/[as_pred] conversions reads used to apply), so
   every register access is a couple of array loads rather than a hashed
   lookup on a boxed key.  Each bank covers exactly the ids of its class the
   function uses: virtual banks are indexed by [id - base] (so
   [Func.fresh_reg]'s 1000+ ids and hand-built small ids cost the same),
   physical banks by id up to the largest one used.  Branch registers never
   reach the executed IR and fold into the integer banks, as in the
   simulator. *)
type frame = {
  func : Func.t;
  pints : int64 array; (* physical r0.. (r0 writes dropped) *)
  pinat : bool array;
  pflts : float array; (* physical f0.. *)
  pfnat : bool array;
  pprds : bool array; (* physical p0.. (p0 pinned true) *)
  ibase : int; (* smallest virtual Int/Brr id of the function *)
  vints : int64 array; (* virtual, indexed by id - ibase *)
  vinat : bool array;
  fbase : int;
  vflts : float array; (* indexed by id - fbase *)
  vfnat : bool array;
  pbase : int;
  vprds : bool array; (* indexed by id - pbase *)
  alat : (int64 * int) Reg.Tbl.t; (* advanced-load entries: reg -> (addr, size) *)
}

(* What one callee name resolves to in a run: an intrinsic, or a function
   with its frame geometry and its pool of released frames (the
   interpreter's counterpart of [Machine.alloc_frame]/[release_frame]). *)
type code = {
  cfunc : Func.t;
  vspan : (int * int) array; (* (base, span) of virtual Int, Flt, Prd *)
  pspan : int array; (* physical Int, Flt, Prd spans (r12 and p0 included) *)
  mutable free : frame list;
}

type callee = Builtin of Intrinsics.kind | Code of code

type calls = {
  callees : (string, callee) Hashtbl.t; (* filled on each name's first call *)
  mutable depth : int; (* live calls *)
}

type state = {
  program : Program.t;
  mem : Memimage.t;
  mutable heap : int64;
  output : Buffer.t;
  input : int64 array;
  mutable fuel : int; (* remaining dynamic instructions *)
  mutable executed : int;
  mutable nat_faults : int; (* NaT consumed by a non-speculative op *)
  mutable wild_loads : int; (* speculative accesses to unmapped pages *)
  mutable alat_recoveries : int; (* chk.a found its entry invalidated *)
  hooks : hooks;
  calls : calls; (* per run, so runs on different domains share nothing *)
}

(* One ALAT per frame would be unsound across our per-frame register files;
   like the hardware we keep one ALAT, keyed by destination register, and
   conservatively flush it at calls. *)

let create ?(hooks = no_hooks) ?(fuel = 400_000_000) program input =
  Program.assign_addresses program;
  let mem = Memimage.create () in
  Memimage.load_program mem program;
  {
    program;
    mem;
    heap = Program.heap_base;
    output = Buffer.create 256;
    input;
    fuel;
    executed = 0;
    nat_faults = 0;
    wild_loads = 0;
    alat_recoveries = 0;
    hooks;
    calls = { callees = Hashtbl.create 16; depth = 0 };
  }

let cls_index = function Reg.Int | Reg.Brr -> 0 | Reg.Flt -> 1 | Reg.Prd -> 2

(* Register-bank geometry of [f]: per class, the smallest and largest
   virtual id and the largest physical id appearing anywhere in the
   function (params, destinations, sources, qualifying predicates).  Every
   register the interpreter can touch during a call appears in one of those
   positions, except the two it touches implicitly: the stack pointer
   (written at entry, read at calls) and p0. *)
let code_of (f : Func.t) =
  let vlo = Array.make 3 max_int and vhi = Array.make 3 (-1) in
  let phi = Array.make 3 (-1) in
  let see (r : Reg.t) =
    let c = cls_index r.Reg.cls and id = r.Reg.id in
    if r.Reg.phys then (if id > phi.(c) then phi.(c) <- id)
    else begin
      if id < vlo.(c) then vlo.(c) <- id;
      if id > vhi.(c) then vhi.(c) <- id
    end
  in
  see Reg.sp;
  see Reg.p0;
  List.iter see f.Func.params;
  Func.iter_instrs f (fun (i : Instr.t) ->
      List.iter see i.Instr.dsts;
      List.iter (function Operand.Reg r -> see r | _ -> ()) i.Instr.srcs;
      match i.Instr.pred with Some p -> see p | None -> ());
  Code
    {
      cfunc = f;
      vspan =
        Array.init 3 (fun c -> if vhi.(c) < 0 then (0, 0) else (vlo.(c), vhi.(c) - vlo.(c) + 1));
      pspan = Array.map (fun hi -> hi + 1) phi;
      free = [];
    }

let resolve st fname =
  match Hashtbl.find st.calls.callees fname with
  | c -> c
  | exception Not_found ->
      let c =
        match Intrinsics.of_name fname with
        | Some k -> Builtin k
        | None -> code_of (Program.find_func_exn st.program fname)
      in
      Hashtbl.add st.calls.callees fname c;
      c

(* A frame for one call: a released frame of the same function, cleared to
   read exactly like a fresh one (every register 0 / not NaT / false, p0
   true, empty ALAT), or a new one. *)
let alloc_frame c =
  let vspan = c.vspan and pspan = c.pspan in
  match c.free with
  | fr :: tl ->
      c.free <- tl;
      Array.fill fr.pints 0 pspan.(0) 0L;
      Array.fill fr.pinat 0 pspan.(0) false;
      Array.fill fr.pflts 0 pspan.(1) 0.;
      Array.fill fr.pfnat 0 pspan.(1) false;
      Array.fill fr.pprds 1 (pspan.(2) - 1) false;
      let _, si = vspan.(0) and _, sf = vspan.(1) and _, sp = vspan.(2) in
      Array.fill fr.vints 0 si 0L;
      Array.fill fr.vinat 0 si false;
      Array.fill fr.vflts 0 sf 0.;
      Array.fill fr.vfnat 0 sf false;
      Array.fill fr.vprds 0 sp false;
      Reg.Tbl.clear fr.alat;
      fr
  | [] ->
      let pprds = Array.make pspan.(2) false in
      pprds.(0) <- true;
      (* p0 hardwired *)
      let ib, si = vspan.(0) and fb, sf = vspan.(1) and pb, sp = vspan.(2) in
      {
        func = c.cfunc;
        pints = Array.make pspan.(0) 0L;
        pinat = Array.make pspan.(0) false;
        pflts = Array.make pspan.(1) 0.;
        pfnat = Array.make pspan.(1) false;
        pprds;
        ibase = ib;
        vints = Array.make si 0L;
        vinat = Array.make si false;
        fbase = fb;
        vflts = Array.make sf 0.;
        vfnat = Array.make sf false;
        pbase = pb;
        vprds = Array.make sp false;
        alat = Reg.Tbl.create 8;
      }

let as_int = function
  | Vi i -> `I i
  | Vnat -> `Nat
  | Vf f -> `I (Int64.of_float f)
  | Vp b -> `I (if b then 1L else 0L)

let as_float = function
  | Vf f -> `F f
  | Vi i -> `F (Int64.to_float i)
  | Vnat -> `Nat
  | Vp b -> `F (if b then 1. else 0.)

let as_pred = function
  | Vp b -> b
  | Vi i -> not (Int64.equal i 0L)
  | Vf _ | Vnat -> false

let read_reg fr (r : Reg.t) =
  let id = r.Reg.id in
  match r.Reg.cls with
  | Reg.Prd -> Vp (if r.Reg.phys then fr.pprds.(id) else fr.vprds.(id - fr.pbase))
  | Reg.Flt ->
      if r.Reg.phys then
        if fr.pfnat.(id) then Vnat else Vf fr.pflts.(id)
      else
        let id = id - fr.fbase in
        if fr.vfnat.(id) then Vnat else Vf fr.vflts.(id)
  | Reg.Int | Reg.Brr ->
      if r.Reg.phys then
        if fr.pinat.(id) then Vnat else Vi fr.pints.(id)
      else
        let id = id - fr.ibase in
        if fr.vinat.(id) then Vnat else Vi fr.vints.(id)

let write_reg fr (r : Reg.t) v =
  let id = r.Reg.id in
  match r.Reg.cls with
  | Reg.Prd ->
      if r.Reg.phys then begin
        if id <> 0 then fr.pprds.(id) <- as_pred v (* p0 pinned *)
      end
      else fr.vprds.(id - fr.pbase) <- as_pred v
  | Reg.Flt -> (
      let flts, fnat, id =
        if r.Reg.phys then (fr.pflts, fr.pfnat, id) else (fr.vflts, fr.vfnat, id - fr.fbase)
      in
      match as_float v with
      | `F f ->
          flts.(id) <- f;
          fnat.(id) <- false
      | `Nat -> fnat.(id) <- true)
  | Reg.Int | Reg.Brr ->
      if r.Reg.phys && id = 0 then () (* r0 hardwired zero *)
      else
        let ints, inat, id =
          if r.Reg.phys then (fr.pints, fr.pinat, id) else (fr.vints, fr.vinat, id - fr.ibase)
        in
        (match as_int v with
        | `I i ->
            ints.(id) <- i;
            inat.(id) <- false
        | `Nat -> inat.(id) <- true)

let operand_value st fr (o : Operand.t) =
  match o with
  | Operand.Reg r -> read_reg fr r
  | Operand.Imm i -> Vi i
  | Operand.Fimm f -> Vf f
  | Operand.Label _ -> Vi 0L
  | Operand.Sym s -> (
      match Program.find_global st.program s with
      | Some g -> Vi g.Program.address
      | None -> Vi (Program.func_address st.program s))

(* Integer binary operation with NaT propagation. *)
let int_binop op a b =
  match (a, b) with
  | `Nat, _ | _, `Nat -> Vnat
  | `I x, `I y -> (
      match op with
      | Opcode.Add -> Vi (Int64.add x y)
      | Opcode.Sub -> Vi (Int64.sub x y)
      | Opcode.Mul -> Vi (Int64.mul x y)
      | Opcode.Div ->
          if Int64.equal y 0L then raise (Fault "division by zero")
          else Vi (Int64.div x y)
      | Opcode.Rem ->
          if Int64.equal y 0L then raise (Fault "remainder by zero")
          else Vi (Int64.rem x y)
      | Opcode.And -> Vi (Int64.logand x y)
      | Opcode.Or -> Vi (Int64.logor x y)
      | Opcode.Xor -> Vi (Int64.logxor x y)
      | Opcode.Shl -> Vi (Int64.shift_left x (Int64.to_int y land 63))
      | Opcode.Shr -> Vi (Int64.shift_right_logical x (Int64.to_int y land 63))
      | Opcode.Sra -> Vi (Int64.shift_right x (Int64.to_int y land 63))
      | _ -> invalid_arg "int_binop")

let flt_binop op a b =
  match (a, b) with
  | `Nat, _ | _, `Nat -> Vnat
  | `F x, `F y -> (
      match op with
      | Opcode.Fadd -> Vf (x +. y)
      | Opcode.Fsub -> Vf (x -. y)
      | Opcode.Fmul -> Vf (x *. y)
      | Opcode.Fdiv -> Vf (x /. y)
      | _ -> invalid_arg "flt_binop")

let print_int_value st (i : int64) =
  Buffer.add_string st.output (Int64.to_string i);
  Buffer.add_char st.output '\n'

let do_intrinsic st (k : Intrinsics.kind) (args : value list) =
  let geti n =
    match List.nth_opt args n with
    | Some v -> (
        match as_int v with
        | `I i -> i
        | `Nat ->
            st.nat_faults <- st.nat_faults + 1;
            0L)
    | None -> 0L
  in
  match k with
  | Intrinsics.Print_int ->
      print_int_value st (geti 0);
      []
  | Intrinsics.Print_char ->
      Buffer.add_char st.output (Char.chr (Int64.to_int (geti 0) land 0xff));
      []
  | Intrinsics.Malloc ->
      let bytes = Int64.to_int (geti 0) in
      let bytes = max 8 ((bytes + 15) / 16 * 16) in
      let addr = st.heap in
      st.heap <- Int64.add st.heap (Int64.of_int bytes);
      Memimage.map_range st.mem addr bytes;
      [ Vi addr ]
  | Intrinsics.Input ->
      let i = Int64.to_int (geti 0) in
      if i >= 0 && i < Array.length st.input then [ Vi st.input.(i) ] else [ Vi 0L ]
  | Intrinsics.Input_len -> [ Vi (Int64.of_int (Array.length st.input)) ]
  | Intrinsics.Memcpy ->
      let dst = geti 0 and src = geti 1 and n = Int64.to_int (geti 2) in
      for i = 0 to n - 1 do
        let b = Memimage.read st.mem (Int64.add src (Int64.of_int i)) 1 in
        Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 b
      done;
      []
  | Intrinsics.Memset ->
      let dst = geti 0 and v = geti 1 and n = Int64.to_int (geti 2) in
      for i = 0 to n - 1 do
        Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 v
      done;
      []
  | Intrinsics.Exit -> raise (Exit_program (Int64.to_int (geti 0)))

(* Execute a load, applying the speculation model.  A non-speculative access
   to an unmapped or NULL page is a fatal fault; a speculative one yields NaT
   ("deferred exception") and is counted as a wild load when off the NULL
   page. *)
let do_load st (spec : Opcode.spec_kind) (addr : int64) size =
  match Memimage.classify st.mem addr with
  | Memimage.Ok -> Vi (Memimage.read st.mem addr size)
  | Memimage.Null_page -> (
      match spec with
      | Opcode.Nonspec | Opcode.Spec_advanced ->
          raise (Fault (Printf.sprintf "load from NULL page 0x%Lx" addr))
      | Opcode.Spec_general | Opcode.Spec_sentinel -> Vnat)
  | Memimage.Unmapped -> (
      match spec with
      | Opcode.Nonspec | Opcode.Spec_advanced ->
          raise (Fault (Printf.sprintf "load from unmapped 0x%Lx" addr))
      | Opcode.Spec_general | Opcode.Spec_sentinel ->
          st.wild_loads <- st.wild_loads + 1;
          Vnat)

(* Bind arguments to parameters in order; missing arguments leave their
   parameter at its cleared value, extra arguments are ignored. *)
let rec bind_params fr params args =
  match (params, args) with
  | p :: ps, v :: vs ->
      write_reg fr p v;
      bind_params fr ps vs
  | _, [] | [], _ -> ()

(* Execute one function invocation; returns the list of returned values. *)
let rec exec_call st (fname : string) (args : value list) (caller_sp : int64) =
  st.hooks.on_call fname;
  match resolve st fname with
  | Builtin k -> do_intrinsic st k args
  | Code c ->
      let calls = st.calls in
      if calls.depth >= max_call_depth then raise Call_depth_exceeded;
      calls.depth <- calls.depth + 1;
      let f = c.cfunc in
      let fr = alloc_frame c in
      bind_params fr f.Func.params args;
      write_reg fr Reg.sp (Vi caller_sp);
      let results = exec_block st fr (Func.entry f) in
      (* an exception abandons the whole run, so only a normal return needs
         to hand the frame back *)
      c.free <- fr :: c.free;
      calls.depth <- calls.depth - 1;
      results

and exec_block st fr (b : Block.t) =
  st.hooks.on_block fr.func b;
  exec_instrs st fr b b.Block.instrs

and exec_instrs st fr (b : Block.t) = function
  | [] -> (
      (* Fall through to the next block in layout order. *)
      match Func.fallthrough fr.func b with
      | Some nb -> exec_block st fr nb
      | None -> raise (Fault (fr.func.Func.name ^ ": fell off the end of " ^ b.Block.label)))
  | (i : Instr.t) :: rest -> (
      if st.fuel <= 0 then raise Out_of_fuel;
      st.fuel <- st.fuel - 1;
      st.executed <- st.executed + 1;
      let guard = match i.Instr.pred with None -> true | Some p -> as_pred (read_reg fr p) in
      let continue () = exec_instrs st fr b rest in
      let goto label =
        match Func.find_block fr.func label with
        | Some nb -> exec_block st fr nb
        | None -> raise (Fault ("branch to unknown label " ^ label))
      in
      match i.Instr.op with
      | Opcode.Cmp (c, ct) | Opcode.Fcmp (c, ct) -> (
          let fcmp = match i.Instr.op with Opcode.Fcmp _ -> true | _ -> false in
          let pt, pf =
            match i.Instr.dsts with
            | [ pt; pf ] -> (pt, pf)
            | _ -> raise (Fault "cmp without two destinations")
          in
          let cond () =
            match i.Instr.srcs with
            | [ a; b' ] ->
                if fcmp then (
                  match (as_float (operand_value st fr a), as_float (operand_value st fr b')) with
                  | `F x, `F y -> Some (Opcode.eval_fcmp c x y)
                  | _ -> None)
                else (
                  match (as_int (operand_value st fr a), as_int (operand_value st fr b')) with
                  | `I x, `I y -> Some (Opcode.eval_icmp c x y)
                  | _ -> None (* NaT input: both targets cleared *))
            | _ -> raise (Fault "cmp arity")
          in
          match ct with
          | Opcode.Norm ->
              if guard then (
                match cond () with
                | Some r ->
                    write_reg fr pt (Vp r);
                    write_reg fr pf (Vp (not r))
                | None ->
                    write_reg fr pt (Vp false);
                    write_reg fr pf (Vp false));
              continue ()
          | Opcode.Unc ->
              (* unc clears both targets even when the guard is false *)
              write_reg fr pt (Vp false);
              write_reg fr pf (Vp false);
              if guard then (
                match cond () with
                | Some r ->
                    write_reg fr pt (Vp r);
                    write_reg fr pf (Vp (not r))
                | None -> ());
              continue ()
          | Opcode.Orform ->
              if guard then (
                match cond () with
                | Some true ->
                    write_reg fr pt (Vp true);
                    write_reg fr pf (Vp true)
                | Some false | None -> ());
              continue ())
      | _ when not guard ->
          (* predicate-squashed: fetched but not executed *)
          (match i.Instr.op with
          | Opcode.Br -> st.hooks.on_branch fr.func i false
          | _ -> ());
          continue ()
      | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
      | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
      | Opcode.Sra -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a; b' ] ->
              let va = as_int (operand_value st fr a)
              and vb = as_int (operand_value st fr b') in
              (* Div/Rem by zero under speculation must defer, not kill. *)
              let v =
                try int_binop i.Instr.op va vb
                with Fault _ when i.Instr.attrs.Instr.speculated -> Vnat
              in
              write_reg fr d v;
              continue ()
          | _ -> raise (Fault ("bad ALU instruction " ^ Instr.to_string i)))
      | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a; b' ] ->
              let v =
                flt_binop i.Instr.op
                  (as_float (operand_value st fr a))
                  (as_float (operand_value st fr b'))
              in
              write_reg fr d v;
              continue ()
          | _ -> raise (Fault "bad FP instruction"))
      | Opcode.Fneg -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a ] ->
              (match as_float (operand_value st fr a) with
              | `F x -> write_reg fr d (Vf (-.x))
              | `Nat -> write_reg fr d Vnat);
              continue ()
          | _ -> raise (Fault "bad fneg"))
      | Opcode.Cvt_fi -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a ] ->
              (match as_float (operand_value st fr a) with
              | `F x -> write_reg fr d (Vi (Int64.of_float x))
              | `Nat -> write_reg fr d Vnat);
              continue ()
          | _ -> raise (Fault "bad cvt.fi"))
      | Opcode.Cvt_if -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a ] ->
              (match as_int (operand_value st fr a) with
              | `I x -> write_reg fr d (Vf (Int64.to_float x))
              | `Nat -> write_reg fr d Vnat);
              continue ()
          | _ -> raise (Fault "bad cvt.if"))
      | Opcode.Mov | Opcode.Sxt _ -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a ] ->
              let v = operand_value st fr a in
              let v =
                match (i.Instr.op, v) with
                | Opcode.Sxt sz, Vi x ->
                    let bits = 8 * Opcode.size_bytes sz in
                    Vi (Int64.shift_right (Int64.shift_left x (64 - bits)) (64 - bits))
                | _ -> v
              in
              write_reg fr d v;
              continue ()
          | _ -> raise (Fault "bad mov"))
      | Opcode.Lea -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ base; off ] ->
              let b' =
                match operand_value st fr base with
                | Vi x -> x
                | _ -> raise (Fault "lea base")
              in
              let o =
                match operand_value st fr off with Vi x -> x | _ -> 0L
              in
              write_reg fr d (Vi (Int64.add b' o));
              continue ()
          | _ -> raise (Fault "bad lea"))
      | Opcode.Ld (sz, spec) -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a ] ->
              (match as_int (operand_value st fr a) with
              | `I addr ->
                  let v = do_load st spec addr (Opcode.size_bytes sz) in
                  (* Floats live in memory as IEEE-754 bit patterns. *)
                  let v =
                    match (v, d.Reg.cls) with
                    | Vi bits, Reg.Flt -> Vf (Int64.float_of_bits bits)
                    | _ -> v
                  in
                  if spec = Opcode.Spec_advanced then
                    Reg.Tbl.replace fr.alat d (addr, Opcode.size_bytes sz);
                  write_reg fr d v
              | `Nat ->
                  (* address is NaT: propagate (speculative chains) *)
                  if spec = Opcode.Nonspec then st.nat_faults <- st.nat_faults + 1;
                  write_reg fr d Vnat);
              continue ()
          | _ -> raise (Fault "bad load"))
      | Opcode.St sz -> (
          match i.Instr.srcs with
          | [ a; v ] ->
              let stored =
                match operand_value st fr v with
                | Vf f -> Vi (Int64.bits_of_float f)
                | x -> x
              in
              (match (as_int (operand_value st fr a), as_int stored) with
              | `I addr, `I x -> (
                  (* invalidate overlapping advanced-load entries; the ALAT
                     is empty unless an advanced load is in flight, so check
                     the size before scanning, and drop stale entries in
                     place rather than via an intermediate list *)
                  if Reg.Tbl.length fr.alat > 0 then begin
                    let bytes = Opcode.size_bytes sz in
                    Reg.Tbl.filter_map_inplace
                      (fun _r ((a, n) as e) ->
                        let lo = max (Int64.to_int a) (Int64.to_int addr) in
                        let hi =
                          min
                            (Int64.to_int a + n)
                            (Int64.to_int addr + bytes)
                        in
                        if lo < hi then None else Some e)
                      fr.alat
                  end;
                  match Memimage.classify st.mem addr with
                  | Memimage.Ok -> Memimage.write st.mem addr (Opcode.size_bytes sz) x
                  | Memimage.Null_page | Memimage.Unmapped ->
                      raise (Fault (Printf.sprintf "store to invalid 0x%Lx" addr)))
              | `Nat, _ | _, `Nat -> st.nat_faults <- st.nat_faults + 1);
              continue ()
          | _ -> raise (Fault "bad store"))
      | Opcode.Chk sz -> (
          match i.Instr.srcs with
          | [ Operand.Reg r; a ] -> (
              match read_reg fr r with
              | Vnat ->
                  (* recovery: reload non-speculatively *)
                  (match as_int (operand_value st fr a) with
                  | `I addr ->
                      let v = do_load st Opcode.Nonspec addr (Opcode.size_bytes sz) in
                      let v =
                        match (v, r.Reg.cls) with
                        | Vi bits, Reg.Flt -> Vf (Int64.float_of_bits bits)
                        | _ -> v
                      in
                      write_reg fr r v
                  | `Nat -> st.nat_faults <- st.nat_faults + 1);
                  continue ()
              | _ -> continue ())
          | _ -> raise (Fault "bad chk"))
      | Opcode.Chka sz -> (
          match i.Instr.srcs with
          | [ Operand.Reg r; a ] ->
              if Reg.Tbl.mem fr.alat r then continue ()
              else begin
                (* entry invalidated by an intervening store: recover *)
                st.alat_recoveries <- st.alat_recoveries + 1;
                (match as_int (operand_value st fr a) with
                | `I addr ->
                    let v = do_load st Opcode.Nonspec addr (Opcode.size_bytes sz) in
                    let v =
                      match (v, r.Reg.cls) with
                      | Vi bits, Reg.Flt -> Vf (Int64.float_of_bits bits)
                      | _ -> v
                    in
                    write_reg fr r v
                | `Nat -> st.nat_faults <- st.nat_faults + 1);
                continue ()
              end
          | _ -> raise (Fault "bad chk.a"))
      | Opcode.Br -> (
          match i.Instr.srcs with
          | [ Operand.Label l ] ->
              st.hooks.on_branch fr.func i true;
              goto l
          | _ -> raise (Fault "bad br"))
      | Opcode.Br_call -> (
          match i.Instr.srcs with
          | target :: args ->
              let argv = List.map (operand_value st fr) args in
              let sp =
                match as_int (read_reg fr Reg.sp) with `I s -> s | `Nat -> 0L
              in
              let results =
                match target with
                | Operand.Sym fname -> exec_call st fname argv sp
                | Operand.Reg r -> (
                    match as_int (read_reg fr r) with
                    | `I addr -> (
                        match Program.func_at_address st.program addr with
                        | Some fname ->
                            st.hooks.on_indirect i fname;
                            exec_call st fname argv sp
                        | None ->
                            raise (Fault (Printf.sprintf "indirect call to 0x%Lx" addr)))
                    | `Nat -> raise (Fault "indirect call through NaT"))
                | _ -> raise (Fault "bad call target")
              in
              Reg.Tbl.reset fr.alat;
              List.iteri
                (fun n d ->
                  match List.nth_opt results n with
                  | Some v -> write_reg fr d v
                  | None -> write_reg fr d (Vi 0L))
                i.Instr.dsts;
              continue ()
          | [] -> raise (Fault "bad call"))
      | Opcode.Br_ret -> List.map (operand_value st fr) i.Instr.srcs
      | Opcode.Alloc | Opcode.Nop -> continue ())

(* Run the whole program; returns (exit_code, output). *)
let run ?hooks ?fuel (p : Program.t) (input : int64 array) =
  let st = create ?hooks ?fuel p input in
  let init_sp = Int64.sub Program.stack_top 128L in
  let code, st =
    try
      let results = exec_call st p.Program.entry [] init_sp in
      let code =
        match results with
        | Vi i :: _ -> Int64.to_int i
        | _ -> 0
      in
      (code, st)
    with Exit_program c -> (c, st)
  in
  (code, Buffer.contents st.output, st)
