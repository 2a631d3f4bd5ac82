(* Standalone differential fuzzer: generates random mini-C programs and
   checks that every optimization level — interpreted and simulated —
   behaves identically to the unoptimized reference.

     dune exec bin/fuzz.exe [SEED] [COUNT]

   On a failure the offending seed and program source are printed to
   stdout (so CI logs carry the full reproducer), the program is also
   written to /tmp/epic_fuzz_<seed>_<case>.c, and the process exits 1. *)

let () =
  let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 42 in
  let count = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 100 in
  let st = Random.State.make [| seed |] in
  let input = [| 5L |] in
  let skipped = ref 0 in
  let failed = ref false in
  for case = 1 to count do
    let src = Epic_core.Random_program.Gen.program st in
    (match Epic_core.Random_program.check src input with
    | Epic_core.Random_program.Agree -> ()
    | Epic_core.Random_program.Skipped -> incr skipped
    | Epic_core.Random_program.Mismatch { config; ir_ok; machine_ok } ->
        Printf.printf "case %d: MISMATCH at %s (ir ok: %b, machine ok: %b)\n"
          case config ir_ok machine_ok;
        failed := true
    | Epic_core.Random_program.Crash { config; exn } ->
        Printf.printf "case %d: CRASH at %s: %s\n" case config exn;
        failed := true);
    if !failed then begin
      let path = Printf.sprintf "/tmp/epic_fuzz_%d_%d.c" seed case in
      Out_channel.with_open_text path (fun oc -> output_string oc src);
      Printf.printf "reproduce with: fuzz.exe %d %d (case %d)\n" seed case case;
      Printf.printf "program saved to %s\n" path;
      Printf.printf "--- offending program ---\n%s\n-------------------------\n" src;
      exit 1
    end;
    if case mod 20 = 0 then Printf.eprintf "  ...%d/%d\n%!" case count
  done;
  Printf.printf "seed %d: %d cases clean (%d skipped: out of fuel or call depth)\n" seed count !skipped
