(* Tests for the host-performance engineering layer (DESIGN.md §10): the
   word-granularity memory image with its page-handle cache, the predecoded
   label index in Func, the flattened and pooled interpreter register files,
   the executors' call-depth bound, the cache set-index bitmask, and the
   host section of run exports.

   The common theme: every optimization here must be architecturally
   invisible, so each test checks the fast path against the semantics the
   slow path (or the seed implementation) defined. *)

open Epic_ir

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let c64 = Alcotest.int64

(* --- Memimage: word-granularity access and the page-handle cache --------- *)

let test_memimage_word_roundtrip () =
  let m = Memimage.create () in
  Memimage.map_range m 4096L 1024;
  Memimage.write m 4096L 8 0x1122334455667788L;
  check c64 "8-byte roundtrip" 0x1122334455667788L (Memimage.read m 4096L 8);
  (* little-endian: the byte view of the word must agree with byte reads *)
  check c64 "low byte" 0x88L (Memimage.read m 4096L 1);
  check c64 "high byte" 0x11L (Memimage.read m 4103L 1);
  (* a 1-byte write lands inside the word *)
  Memimage.write m 4100L 1 0xffL;
  check c64 "byte write visible in word" 0x112233ff55667788L (Memimage.read m 4096L 8);
  (* 4-byte write truncates to the low half, like the old byte loop *)
  Memimage.write m 4200L 4 0x1_0000_0001L;
  check c64 "4-byte write truncates" 1L (Memimage.read m 4200L 4)

let test_memimage_sign_extension () =
  let m = Memimage.create () in
  Memimage.map_range m 4096L 64;
  Memimage.write m 4096L 4 0xffffffffL;
  check c64 "in-page 32-bit read sign-extends" (-1L) (Memimage.read m 4096L 4);
  Memimage.write m 4096L 4 0x7fffffffL;
  check c64 "positive stays positive" 0x7fffffffL (Memimage.read m 4096L 4);
  check c64 "1-byte reads are unsigned" 0xffL
    (Memimage.write m 4096L 1 0xffL;
     Memimage.read m 4096L 1)

let test_memimage_page_crossing () =
  (* pages are 512 B; an 8-byte access at offset 508 straddles the edge and
     must take the byte-assembly slow path with identical semantics *)
  let m = Memimage.create () in
  Memimage.map_range m 4096L 2048;
  let edge = Int64.add 4096L 508L in
  Memimage.write m edge 8 0x0102030405060708L;
  check c64 "crossing 8-byte roundtrip" 0x0102030405060708L (Memimage.read m edge 8);
  (* bytes landed on both sides of the boundary *)
  check c64 "byte before edge" 0x08L (Memimage.read m edge 1);
  check c64 "byte after edge" 0x01L (Memimage.read m (Int64.add edge 7L) 1);
  (* crossing 4-byte read still sign-extends *)
  let edge4 = Int64.add 4096L 510L in
  Memimage.write m edge4 4 0xffffffffL;
  check c64 "crossing 32-bit read sign-extends" (-1L) (Memimage.read m edge4 4)

let test_memimage_handle_cache_interleaving () =
  (* alternating between two pages repeatedly must behave exactly like
     sequential access — the one-entry handle cache may never serve a stale
     page *)
  let m = Memimage.create () in
  Memimage.map_range m 4096L 4096;
  let a = 4096L and b = Int64.add 4096L 1024L in
  for i = 0 to 99 do
    Memimage.write m a 8 (Int64.of_int i);
    Memimage.write m b 8 (Int64.of_int (1000 + i));
    check c64 "page a current" (Int64.of_int i) (Memimage.read m a 8);
    check c64 "page b current" (Int64.of_int (1000 + i)) (Memimage.read m b 8)
  done;
  (* classification is orthogonal to the handle cache *)
  check cb "unmapped still unmapped" true
    (Memimage.classify m 0x999999L = Memimage.Unmapped)

(* --- Func: the predecoded label index vs the linear scan ----------------- *)

(* The seed implementation [find_block] replaced: first block in layout
   order bearing the label. *)
let oracle_find (f : Func.t) label =
  List.find_opt (fun (b : Block.t) -> b.Block.label = label) f.Func.blocks

let oracle_fallthrough (f : Func.t) (b : Block.t) =
  let rec go = function
    | x :: (y :: _ as tl) -> if x == b then Some y else go tl
    | [ _ ] | [] -> None
  in
  go f.Func.blocks

let assert_index_matches_oracle f =
  let labels =
    "nope" :: List.map (fun (b : Block.t) -> b.Block.label) f.Func.blocks
  in
  List.iter
    (fun l ->
      let got = Func.find_block f l and want = oracle_find f l in
      check cb ("find_block " ^ l ^ " agrees (some/none)")
        (Option.is_some want) (Option.is_some got);
      match (got, want) with
      | Some g, Some w -> check cb ("find_block " ^ l ^ " same block") true (g == w)
      | _ -> ())
    labels;
  List.iter
    (fun (b : Block.t) ->
      let got = Func.fallthrough f b and want = oracle_fallthrough f b in
      check cb ("fallthrough " ^ b.Block.label ^ " agrees") true
        (match (got, want) with
        | Some g, Some w -> g == w
        | None, None -> true
        | _ -> false))
    f.Func.blocks

let mk_func labels =
  let f = Func.create "t" [] in
  List.iter
    (fun l ->
      let b = Block.create l in
      Block.append b
        (Instr.create Opcode.Mov ~dsts:[ Reg.virt 1 Reg.Int ] ~srcs:[ Operand.imm 1 ]);
      Func.append_block f b)
    labels;
  f

let test_label_index_oracle () =
  let f = mk_func [ "a"; "b"; "c"; "d" ] in
  assert_index_matches_oracle f

let test_label_index_duplicate_labels () =
  (* duplicate labels: the index must keep the first, like List.find_opt;
     fallthrough from the alias block must still be exact *)
  let f = mk_func [ "a"; "dup"; "b"; "dup"; "c" ] in
  assert_index_matches_oracle f

let test_label_index_invalidation () =
  let f = mk_func [ "a"; "b"; "c" ] in
  assert_index_matches_oracle f;
  (* append_block replaces the list spine *)
  Func.append_block f (Block.create "e");
  assert_index_matches_oracle f;
  (* insert_after does too *)
  let b = Func.find_block_exn f "b" in
  Func.insert_after f b (Block.create "after_b");
  assert_index_matches_oracle f;
  (* direct reassignment of [blocks] (filtering, reordering) *)
  f.Func.blocks <-
    List.filter (fun (x : Block.t) -> x.Block.label <> "c") f.Func.blocks;
  assert_index_matches_oracle f;
  check cb "removed block gone" true (Func.find_block f "c" = None);
  f.Func.blocks <- List.rev f.Func.blocks;
  assert_index_matches_oracle f

(* --- Interp: flattened register files ------------------------------------ *)

(* Hand-built function using small virtual ids (1..9) — the bank sizing must
   follow the ids actually used, not assume Func.fresh_reg's 1000+ range. *)
let test_interp_small_virt_ids () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let v1 = Reg.virt 1 Reg.Int and v2 = Reg.virt 2 Reg.Int in
  let vf = Reg.virt 3 Reg.Flt in
  let vp = Reg.virt 4 Reg.Prd and vpf = Reg.virt 9 Reg.Prd in
  Builder.movi bld v1 20;
  Builder.add bld v2 (Operand.Reg v1) (Operand.imm 22);
  Builder.binop bld Opcode.Fadd vf (Operand.Fimm 1.5) (Operand.Fimm 2.5);
  Builder.cmp bld Opcode.Lt vp vpf (Operand.Reg v1) (Operand.Reg v2);
  let v5 = Reg.virt 5 Reg.Int in
  (* predicated move exercises the predicate bank *)
  ignore (Builder.emit bld ~pred:vp Opcode.Mov ~dsts:[ v5 ] ~srcs:[ Operand.imm 7 ]);
  ignore (Builder.call bld "print_int" [ Operand.Reg v2 ]);
  ignore (Builder.call bld "print_int" [ Operand.Reg v5 ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  let code, out, st = Interp.run p [||] in
  check ci "exit code" 0 code;
  check cs "output" "42\n7" (String.trim out);
  check ci "no nat faults" 0 st.Interp.nat_faults

(* Exact event-counter semantics on hand-built programs: the flattening must
   not move where NaT, wild-load and ALAT events are counted. *)
let test_interp_counters_wild_and_nat () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let d = Builder.fresh_int bld in
  (* control-speculative load from unmapped memory: wild load, NaT dest *)
  ignore (Builder.load ~spec:Opcode.Spec_general bld d (Operand.imm 0x500000));
  (* storing the NaT value consumes it non-speculatively: one nat fault *)
  ignore (Builder.store bld (Operand.Reg Reg.sp) (Operand.Reg d));
  (* NaT propagates through arithmetic without faulting *)
  let e = Builder.fresh_int bld in
  Builder.add bld e (Operand.Reg d) (Operand.imm 1);
  ignore (Builder.call bld "print_int" [ Operand.imm 5 ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  let code, out, st = Interp.run p [||] in
  check ci "exit code" 0 code;
  check cs "output" "5" (String.trim out);
  check ci "one wild load" 1 st.Interp.wild_loads;
  check ci "one nat fault" 1 st.Interp.nat_faults;
  check ci "no alat recoveries" 0 st.Interp.alat_recoveries

let test_interp_counters_alat () =
  (* ld.a / st / chk.a: the overlapping store invalidates the ALAT entry and
     the check reloads — exactly one recovery, and the reloaded value is the
     stored one *)
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  ignore (Builder.store bld (Operand.Reg Reg.sp) (Operand.imm 111));
  let d = Builder.fresh_int bld in
  ignore (Builder.load ~spec:Opcode.Spec_advanced bld d (Operand.Reg Reg.sp));
  ignore (Builder.store bld (Operand.Reg Reg.sp) (Operand.imm 222));
  ignore
    (Builder.emit bld (Opcode.Chka Opcode.B8) ~dsts:[]
       ~srcs:[ Operand.Reg d; Operand.Reg Reg.sp ]);
  ignore (Builder.call bld "print_int" [ Operand.Reg d ]);
  (* a second chk.a on the same (still absent) entry recovers again *)
  ignore
    (Builder.emit bld (Opcode.Chka Opcode.B8) ~dsts:[]
       ~srcs:[ Operand.Reg d; Operand.Reg Reg.sp ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  let code, out, st = Interp.run p [||] in
  check ci "exit code" 0 code;
  check cs "reloaded the stored value" "222" (String.trim out);
  check ci "two alat recoveries" 2 st.Interp.alat_recoveries;
  (* disjoint store leaves the entry alone: zero recoveries *)
  Instr.reset_ids ();
  let p2 = Program.create () in
  let f2 = Func.create "main" [] in
  let bld2 = Builder.create f2 in
  ignore (Builder.start_block bld2 "entry");
  ignore (Builder.store bld2 (Operand.Reg Reg.sp) (Operand.imm 7));
  let d2 = Builder.fresh_int bld2 in
  ignore (Builder.load ~spec:Opcode.Spec_advanced bld2 d2 (Operand.Reg Reg.sp));
  let far = Builder.fresh_int bld2 in
  Builder.add bld2 far (Operand.Reg Reg.sp) (Operand.imm 64);
  ignore (Builder.store bld2 (Operand.Reg far) (Operand.imm 9));
  ignore
    (Builder.emit bld2 (Opcode.Chka Opcode.B8) ~dsts:[]
       ~srcs:[ Operand.Reg d2; Operand.Reg Reg.sp ]);
  ignore (Builder.call bld2 "print_int" [ Operand.Reg d2 ]);
  Builder.ret bld2 [ Operand.imm 0 ];
  Program.add_func p2 f2;
  Program.assign_addresses p2;
  let _, out2, st2 = Interp.run p2 [||] in
  check cs "original value survives" "7" (String.trim out2);
  check ci "no recovery on disjoint store" 0 st2.Interp.alat_recoveries

let test_interp_executed_count_exact () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let v = Builder.fresh_int bld in
  Builder.movi bld v 1;
  Builder.add bld v (Operand.Reg v) (Operand.imm 2);
  Builder.ret bld [ Operand.Reg v ];
  Program.add_func p f;
  Program.assign_addresses p;
  let code, _, st = Interp.run p [||] in
  check ci "returns 3" 3 code;
  check ci "exactly three instructions executed" 3 st.Interp.executed

(* --- Interp: pooled frames and the call-depth bound ------------------------ *)

(* A released frame is reused by the next call of the same function, so it
   must read exactly like a fresh one.  [f] writes an integer, a float, a
   predicate, a NaT and a physical register only when its argument is
   non-zero; called with 1 and then 0, the second call (on the pooled
   frame) must see every one of them unwritten. *)
let test_interp_pooled_frame_reads_fresh () =
  Instr.reset_ids ();
  let p = Program.create () in
  let x = Reg.virt 1 Reg.Int in
  let f = Func.create "f" [ x ] in
  let b = Builder.create f in
  ignore (Builder.start_block b "entry");
  let pt = Builder.fresh_pred b and pf = Builder.fresh_pred b in
  Builder.cmp b Opcode.Ne pt pf (Operand.Reg x) (Operand.imm 0);
  let vi = Builder.fresh_int b in
  ignore (Builder.emit b ~pred:pt Opcode.Mov ~dsts:[ vi ] ~srcs:[ Operand.imm 42 ]);
  let vf = Builder.fresh b Reg.Flt in
  ignore
    (Builder.emit b ~pred:pt Opcode.Fadd ~dsts:[ vf ]
       ~srcs:[ Operand.Fimm 1.5; Operand.Fimm 0. ]);
  let vq = Builder.fresh_pred b and vq' = Builder.fresh_pred b in
  ignore
    (Builder.emit b ~pred:pt
       (Opcode.Cmp (Opcode.Eq, Opcode.Norm))
       ~dsts:[ vq; vq' ] ~srcs:[ Operand.imm 0; Operand.imm 0 ]);
  let r14 = Reg.phys 14 Reg.Int in
  ignore (Builder.emit b ~pred:pt Opcode.Mov ~dsts:[ r14 ] ~srcs:[ Operand.imm 5 ]);
  (* a wild speculative load leaves a NaT; storing it is one NaT fault *)
  let vn = Builder.fresh_int b in
  ignore
    (Builder.emit b ~pred:pt
       (Opcode.Ld (Opcode.B8, Opcode.Spec_general))
       ~dsts:[ vn ] ~srcs:[ Operand.imm 0x500000 ]);
  ignore (Builder.store b (Operand.Reg Reg.sp) (Operand.Reg vn));
  let vk = Builder.fresh_int b in
  ignore (Builder.emit b ~pred:vq Opcode.Mov ~dsts:[ vk ] ~srcs:[ Operand.imm 7 ]);
  let vfi = Builder.fresh_int b in
  ignore (Builder.emit b Opcode.Cvt_fi ~dsts:[ vfi ] ~srcs:[ Operand.Reg vf ]);
  let s1 = Builder.fresh_int b and s2 = Builder.fresh_int b and s3 = Builder.fresh_int b in
  Builder.add b s1 (Operand.Reg vi) (Operand.Reg vk);
  Builder.add b s2 (Operand.Reg s1) (Operand.Reg vfi);
  Builder.add b s3 (Operand.Reg s2) (Operand.Reg r14);
  Builder.ret b [ Operand.Reg s3 ];
  Program.add_func p f;
  let main = Func.create "main" [] in
  let mb = Builder.create main in
  ignore (Builder.start_block mb "entry");
  List.iter
    (fun arg ->
      let r = Builder.fresh_int mb in
      ignore (Builder.call mb ~dsts:[ r ] "f" [ Operand.imm arg ]);
      ignore (Builder.call mb "print_int" [ Operand.Reg r ]))
    [ 1; 0 ];
  Builder.ret mb [ Operand.imm 0 ];
  Program.add_func p main;
  Program.assign_addresses p;
  let code, out, st = Interp.run p [||] in
  check ci "exit code" 0 code;
  check cs "first call writes, second reads zeros" "55\n0" (String.trim out);
  check ci "only the first call's NaT store faults" 1 st.Interp.nat_faults

(* Recursion takes one pooled frame per live level: every level must keep
   its own registers, and the result must match the machine's. *)
let fib_source =
  {|
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { print_int(fib(15)); return 0; }
|}

let test_interp_pooled_recursion () =
  let p = Epic_frontend.Lower.compile_source fib_source in
  let code, out, _ = Interp.run p [||] in
  check ci "exit code" 0 code;
  check cs "fib(15)" "610" (String.trim out);
  List.iter
    (fun config ->
      let c = Epic_core.Driver.compile ~config ~train:[||] fib_source in
      let ic, io = Epic_core.Driver.run_reference c [||] in
      let mc, mo, _ = Epic_core.Driver.run c [||] in
      check ci "interpreter exit code" 0 ic;
      check cs "interpreter matches" out io;
      check ci "machine exit code" 0 mc;
      check cs "machine matches" out mo)
    [ Epic_core.Config.gcc_like; Epic_core.Config.ilp_cs ]

(* Virtual banks are indexed from the function's smallest id of each class,
   so widely spread ids in one function still address distinct slots. *)
let test_interp_sparse_virt_ids () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let b = Builder.create f in
  ignore (Builder.start_block b "entry");
  let lo = Reg.virt 3 Reg.Int and hi = Reg.virt 1_000_000 Reg.Int in
  let flo = Reg.virt 4 Reg.Flt and fhi = Reg.virt 700_000 Reg.Flt in
  let fi = Reg.virt 500_000 Reg.Int in
  Builder.movi b lo 40;
  Builder.add b hi (Operand.Reg lo) (Operand.imm 2);
  ignore (Builder.emit b Opcode.Fadd ~dsts:[ flo ] ~srcs:[ Operand.Fimm 0.5; Operand.Fimm 0.5 ]);
  ignore
    (Builder.emit b Opcode.Fadd ~dsts:[ fhi ] ~srcs:[ Operand.Reg flo; Operand.Fimm 2. ]);
  ignore (Builder.emit b Opcode.Cvt_fi ~dsts:[ fi ] ~srcs:[ Operand.Reg fhi ]);
  ignore (Builder.call b "print_int" [ Operand.Reg hi ]);
  ignore (Builder.call b "print_int" [ Operand.Reg lo ]);
  ignore (Builder.call b "print_int" [ Operand.Reg fi ]);
  Builder.ret b [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  let code, out, _ = Interp.run p [||] in
  check ci "exit code" 0 code;
  check cs "output" "42\n40\n3" (String.trim out)

let runaway_source =
  {|
int down(int x) { return down(x + 1) + 1; }
int main() { return down(0); }
|}

(* Runaway recursion stops at the depth bound in both executors, with an
   exception of its own and without growing the heap beyond the bound's
   worth of frames. *)
let test_call_depth_bound () =
  let heap_mb () =
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) / (1024 * 1024)
  in
  let before = heap_mb () in
  let p = Epic_frontend.Lower.compile_source runaway_source in
  check cb "interpreter raises Call_depth_exceeded" true
    (match Interp.run p [||] with
    | _ -> false
    | exception Interp.Call_depth_exceeded -> true);
  (* GCC-like compiles without profiling, so the machine meets it first *)
  let c =
    Epic_core.Driver.compile ~config:Epic_core.Config.gcc_like ~train:[||] runaway_source
  in
  check cb "machine raises Call_depth_exceeded" true
    (match Epic_core.Driver.run c [||] with
    | _ -> false
    | exception Epic_sim.Machine.Call_depth_exceeded -> true);
  check cb "reference check raises too" true
    (match Epic_core.Driver.run_reference c [||] with
    | _ -> false
    | exception Interp.Call_depth_exceeded -> true);
  let grown = heap_mb () - before in
  if grown > 256 then Alcotest.failf "heap grew by %d MB" grown;
  check cb "the differential check calls the case vacuous" true
    (Epic_core.Random_program.check runaway_source [||]
    = Epic_core.Random_program.Skipped)

(* The whole-pipeline differential property: the flattened interpreter must
   agree with the unoptimized reference AND the machine simulator at every
   level (the same oracle the seed engines satisfied). *)
let qcheck_flat_interp_differential =
  QCheck.Test.make ~count:10
    ~name:"flat-register interpreter preserves seed semantics at every level"
    (QCheck.make ~print:(fun s -> s) Epic_core.Random_program.Gen.program)
    (fun src -> Epic_core.Random_program.agrees src [| 9L |])

(* --- Cache: set-index bitmask vs division -------------------------------- *)

let test_cache_mask_geometry () =
  let open Epic_sim in
  let c = Cache.create ~name:"l1" ~size:(16 * 1024) ~line:64 ~assoc:4 in
  check ci "sets" 64 c.Cache.sets;
  check ci "mask is sets-1" 63 c.Cache.sets_mask;
  (* non-power-of-two geometry keeps the division path *)
  let odd = Cache.create ~name:"odd" ~size:(3 * 64 * 2) ~line:64 ~assoc:2 in
  check ci "odd sets" 3 odd.Cache.sets;
  check ci "odd mask disabled" (-1) odd.Cache.sets_mask

let test_cache_access_probe_agree () =
  let open Epic_sim in
  List.iter
    (fun c ->
      (* addresses chosen to scatter over sets, including high addresses *)
      let addrs =
        List.init 200 (fun i ->
            Int64.add 0x7000_0000_0000_0000L (Int64.of_int (i * 4093 * 64)))
      in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      (* the most recent [assoc] lines of every set survive; at minimum the
         very last access must probe as present *)
      let last = List.nth addrs 199 in
      check cb (c.Cache.name ^ ": probe sees last access") true (Cache.probe c last);
      (* an address never accessed misses *)
      check cb (c.Cache.name ^ ": unknown probe misses") false (Cache.probe c 0x123L);
      (* hit on immediate re-access *)
      check cb (c.Cache.name ^ ": re-access hits") true (Cache.access c last))
    [
      Cache.create ~name:"pow2" ~size:(8 * 1024) ~line:64 ~assoc:2;
      Cache.create ~name:"odd" ~size:(3 * 64 * 2) ~line:64 ~assoc:2;
    ]

(* --- Export: host section and its normalization -------------------------- *)

let test_export_host_section () =
  let w =
    Epic_workloads.Workload.make ~name:"000.tiny" ~short:"tiny"
      ~description:"host-section probe"
      ~source:"int main() { print_int(42); return 0; }" ~train:[||]
      ~reference:[||] ()
  in
  let r = Epic_core.Experiments.run_one w Epic_core.Config.Gcc_like in
  let open Epic_obs in
  let j = Epic_core.Export.run_to_json r in
  (match Json.member "host" j with
  | Some (Json.Obj _ as h) ->
      let field n =
        match Option.bind (Json.member n h) Json.to_float_opt with
        | Some v -> v
        | None -> Alcotest.fail ("host section missing " ^ n)
      in
      check cb "wall_s non-negative" true (field "wall_s" >= 0.);
      check cb "minor_words non-negative" true (field "minor_words" >= 0.);
      check cb "collections counted" true (field "minor_collections" >= 0.)
  | _ -> Alcotest.fail "run JSON has no host section");
  (* normalization drops the section whole, so normalized documents are
     byte-identical to pre-host exports *)
  let n = Epic_core.Export.normalize_time j in
  check cb "normalize removes host" true (Json.member "host" n = None);
  (* and still zeroes wall-clock fields elsewhere *)
  match Json.member "passes" n with
  | Some (Json.List (p :: _)) ->
      check cb "pass wall_s zeroed" true
        (Option.bind (Json.member "wall_s" p) Json.to_float_opt = Some 0.)
  | _ -> Alcotest.fail "run JSON has no passes"

let suite =
  [
    ("memimage word roundtrip", `Quick, test_memimage_word_roundtrip);
    ("memimage sign extension", `Quick, test_memimage_sign_extension);
    ("memimage page crossing", `Quick, test_memimage_page_crossing);
    ("memimage handle-cache interleaving", `Quick, test_memimage_handle_cache_interleaving);
    ("label index oracle", `Quick, test_label_index_oracle);
    ("label index duplicate labels", `Quick, test_label_index_duplicate_labels);
    ("label index invalidation", `Quick, test_label_index_invalidation);
    ("interp small virtual ids", `Quick, test_interp_small_virt_ids);
    ("interp wild/nat counters", `Quick, test_interp_counters_wild_and_nat);
    ("interp alat counters", `Quick, test_interp_counters_alat);
    ("interp executed count", `Quick, test_interp_executed_count_exact);
    ("interp pooled frame reads fresh", `Quick, test_interp_pooled_frame_reads_fresh);
    ("interp pooled recursion matches machine", `Quick, test_interp_pooled_recursion);
    ("interp sparse virtual ids", `Quick, test_interp_sparse_virt_ids);
    ("call depth bound in both executors", `Quick, test_call_depth_bound);
    QCheck_alcotest.to_alcotest qcheck_flat_interp_differential;
    ("cache mask geometry", `Quick, test_cache_mask_geometry);
    ("cache access/probe agree", `Quick, test_cache_access_probe_agree);
    ("export host section", `Quick, test_export_host_section);
  ]
