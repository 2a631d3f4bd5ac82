(** The reference interpreter: executes (virtual- or physical-register) IR
    directly, at any point of the pipeline, with the IA-64 semantics the
    structural transforms rely on — predication, compare types, NaT
    deferral for control-speculative loads, sentinel checks with in-place
    recovery, and an ALAT for data-speculative loads.

    It is the semantic oracle for differential testing and, through
    [hooks], the engine behind control-flow profiling. *)

type value = Vi of int64 | Vf of float | Vp of bool | Vnat

exception Fault of string  (** architectural fault: the program is wrong *)

exception Exit_program of int  (** raised by the [exit] intrinsic *)

exception Out_of_fuel  (** the dynamic instruction budget was exhausted *)

exception Call_depth_exceeded
(** a call would make the chain of live calls deeper than [max_call_depth] *)

(** The deepest call chain a run may build; far above any terminating
    workload's, so in practice it only stops runaway recursion. *)
val max_call_depth : int

(** Instrumentation callbacks (all default to no-ops). *)
type hooks = {
  on_block : Func.t -> Block.t -> unit;  (** every block entry *)
  on_branch : Func.t -> Instr.t -> bool -> unit;
      (** every executed direct branch, with its taken outcome *)
  on_call : string -> unit;  (** every call, by callee name *)
  on_indirect : Instr.t -> string -> unit;
      (** every indirect call site with the resolved callee *)
}

val no_hooks : hooks

(** Per-run call bookkeeping, internal to the interpreter: each callee
    name's resolution (an intrinsic, or a function with its register-bank
    geometry and a pool of released call frames, DESIGN.md §10) and the
    live call depth. *)
type calls

(** Interpreter state; exposed so callers can read the event counters. *)
type state = {
  program : Program.t;
  mem : Memimage.t;
  mutable heap : int64;
  output : Buffer.t;
  input : int64 array;
  mutable fuel : int;
  mutable executed : int;  (** dynamic instructions executed *)
  mutable nat_faults : int;  (** NaT consumed by a non-speculative op *)
  mutable wild_loads : int;  (** speculative accesses to unmapped pages *)
  mutable alat_recoveries : int;  (** chk.a entries found invalidated *)
  hooks : hooks;
  calls : calls;
}

(** Run [program] with the given input vector (read by the [input]
    intrinsic); returns (exit code, printed output, final state).
    [fuel] bounds the dynamic instruction count (default 4·10⁸). *)
val run :
  ?hooks:hooks ->
  ?fuel:int ->
  Program.t ->
  int64 array ->
  int * string * state
