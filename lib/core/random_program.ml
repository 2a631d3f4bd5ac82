(* Random mini-C program generation and whole-pipeline differential
   checking.  Used by the qcheck property in the test suite and by the
   standalone fuzzer (bin/fuzz.ml): a generated program is compiled at
   every optimization level and executed both by the reference interpreter
   and by the machine simulator, and all observable behaviour (exit code,
   printed output) must agree with the unoptimized program's.

   Generated programs always terminate: loops are bounded counted loops
   whose counters only their own loop writes, [helper]'s body never calls
   [helper] (so there is no recursion), division and modulus take non-zero
   constant divisors, and all array indices are masked into range. *)

module Gen = struct
  open QCheck.Gen

  let var n = Printf.sprintf "v%d" n

  (* [calls]: whether the expression may call [helper] — never inside
     [helper]'s own body. *)
  let rec expr ?(calls = true) depth st =
    let atom =
      oneof
        [
          (let* k = int_range (-50) 99 in
           return (string_of_int k));
          (let* v = int_range 0 3 in
           return (var v));
          (let* i = int_range 0 31 in
           return (Printf.sprintf "g[%d]" i));
          return "input(0)";
        ]
    in
    let sub = expr ~calls (depth - 1) in
    if depth <= 0 then atom st
    else
      (oneof
         ([
            atom;
            (let* a = sub and* b = sub in
             let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
             return (Printf.sprintf "(%s %s %s)" a op b));
            (let* a = sub in
             (* safe division / modulus: constant non-zero divisor *)
             let* op = oneofl [ "/"; "%" ] in
             let* k = int_range 2 9 in
             return (Printf.sprintf "(%s %s %d)" a op k));
            (let* a = sub and* b = sub in
             let* op = oneofl [ "<"; ">"; "=="; "!=" ] in
             return (Printf.sprintf "(%s %s %s)" a op b));
          ]
         @
         if calls then
           [
             (let* a = sub in
              return (Printf.sprintf "helper(%s)" a));
           ]
         else []))
        st

  let assign =
    let* v = int_range 0 3 in
    let* e = expr 2 in
    return (Printf.sprintf "%s = %s;" (var v) e)

  let array_store =
    let* i = int_range 0 3 in
    let* e = expr 2 in
    return (Printf.sprintf "g[(%s & 31)] = %s;" (var i) e)

  let rec stmt depth st =
    (if depth <= 0 then oneof [ assign; array_store ]
     else
       frequency
         [
           (3, assign);
           (2, array_store);
           ( 2,
             let* c = expr 2 in
             let* a = block (depth - 1) and* b = block (depth - 1) in
             return (Printf.sprintf "if (%s) {\n%s\n} else {\n%s\n}" c a b) );
           ( 1,
             (* each nesting level counts with its own variable (v4-v6,
                which nothing else writes), so an inner loop never resets
                an outer loop's counter *)
             let* n = int_range 1 12 in
             let* body = block (depth - 1) in
             let v = var (3 + depth) in
             return
               (Printf.sprintf "for (%s = 0; %s < %d; %s = %s + 1) {\n%s\n}" v v n v v
                  body) );
         ])
      st

  and block depth st =
    (let* n = int_range 1 4 in
     let* stmts = list_size (return n) (stmt depth) in
     return (String.concat "\n" stmts))
      st

  let program =
    let* body = block 3 in
    let* helper_body = expr ~calls:false 2 in
    let* seed = int_range 0 1000 in
    return
      (Printf.sprintf
         {|
int g[32];
int v0; int v1; int v2; int v3; int v4; int v5; int v6;
int helper(int x) {
  int v0; int v1; int v2; int v3;
  v0 = x; v1 = x * 3; v2 = 7; v3 = 1;
  return (%s) %% 100000;
}
int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) { g[i] = (i * %d + 3) %% 101 - 20; }
  v0 = 1; v1 = 2; v2 = 3; v3 = 4; v4 = 0; v5 = 0; v6 = 0;
%s
  print_int(v0); print_int(v1); print_int(v2); print_int(v3);
  print_int(g[5]); print_int(g[17]);
  return 0;
}
|}
         helper_body seed body)
end

(** The configurations a program is checked under: the paper's four levels
    plus the sentinel-speculation and data-speculation variants. *)
let configs =
  [
    ("gcc", Config.gcc_like);
    ("o-ns", Config.o_ns);
    ("ilp-ns", Config.ilp_ns);
    ("ilp-cs", Config.ilp_cs);
    ( "ilp-cs-sentinel",
      { (Config.make Config.ILP_CS) with Config.spec_model = Epic_ilp.Speculate.Sentinel } );
    ( "ilp-cs-dataspec",
      { (Config.make Config.ILP_CS) with Config.enable_data_speculation = true } );
  ]

type outcome =
  | Agree  (** every configuration matched the reference *)
  | Skipped
      (** a run exhausted its fuel or its call depth; nothing to compare *)
  | Mismatch of { config : string; ir_ok : bool; machine_ok : bool }
  | Crash of { config : string; exn : string }

let reference ?(fuel = 4_000_000) (src : string) (input : int64 array) =
  let p = Epic_frontend.Lower.compile_source src in
  let code, out, _ = Epic_ir.Interp.run ~fuel p input in
  (code, out)

(* A run stopped by an executor's budget (fuel or call depth) rather than
   by a fault: the case is vacuous, not a failure. *)
let exhausted = function
  | Epic_ir.Interp.Out_of_fuel | Epic_ir.Interp.Call_depth_exceeded
  | Epic_sim.Machine.Out_of_fuel | Epic_sim.Machine.Call_depth_exceeded ->
      true
  | _ -> false

(* Check one source at every configuration, both through the interpreter
   (IR semantics after all transforms) and through the machine. *)
let check ?(fuel = 8_000_000) (src : string) (input : int64 array) : outcome =
  match reference src input with
  | exception e when exhausted e -> Skipped
  | expected ->
      let rec go = function
        | [] -> Agree
        | (name, config) :: rest -> (
            match Driver.compile ~config ~train:input src with
            | exception e when exhausted e -> Skipped
            | exception e -> Crash { config = name; exn = Printexc.to_string e }
            | compiled -> (
                match
                  ( Driver.run_reference ~fuel compiled input,
                    Driver.run ~fuel compiled input )
                with
                | exception e when exhausted e -> Skipped
                | exception e -> Crash { config = name; exn = Printexc.to_string e }
                | (ic, io), (mc, mo, _) ->
                    let ir_ok = (ic, io) = expected in
                    let machine_ok = (mc, mo) = expected in
                    if ir_ok && machine_ok then go rest
                    else Mismatch { config = name; ir_ok; machine_ok }))
      in
      go configs

(** True when the program agrees everywhere (Skipped counts as success for
    property testing — the case is vacuous). *)
let agrees ?fuel src input =
  match check ?fuel src input with
  | Agree | Skipped -> true
  | Mismatch _ | Crash _ -> false
