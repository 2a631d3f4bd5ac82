(* Exit code and output of every (workload, input) the benchmark simulates,
   as printed by the reference interpreter on the unoptimized program
   ([Epic_frontend.Lower.compile_source] then [Epic_ir.Interp.run]).
   Interpreting the big inputs costs more than the simulations they check,
   so the benchmark compares against this table; test_bench.ml re-derives
   the table's cheap entries from the interpreter. *)

let table =
  [
    ("gzip", "train", 0, "119\n116\n123\n893\n324\n158\n117\n1\n2866\n");
    ("gzip", "reference", 0, "198\n199\n205\n2348\n1008\n366\n23\n6\n7519\n");
    ("gzip", "big", 0, "2018\n2037\n2027\n23160\n10267\n3653\n270\n34\n75041\n");
    ("vpr", "train", 0, "23\n7619\n");
    ("vpr", "reference", 0, "25\n12991\n");
    ("gcc", "train", 0, "161\n797603\n");
    ("gcc", "reference", 0, "228\n933628\n");
    ("mcf", "train", 0, "7878\n");
    ("mcf", "reference", 0, "17655\n");
    ("mcf", "big", 0, "105140\n");
    ("crafty", "train", 0, "1860\n");
    ("crafty", "reference", 0, "-3509\n");
    ("parser", "train", 0, "300\n16572\n");
    ("parser", "reference", 0, "480\n22217\n");
    ("eon", "train", 0, "508271\n");
    ("eon", "reference", 0, "1181258\n");
    ("perlbmk", "train", 0, "61\n");
    ("perlbmk", "reference", 0, "27909\n");
    ("gap", "train", 0, "856766\n");
    ("gap", "reference", 0, "854575\n");
    ("vortex", "train", 0, "190\n8987787\n");
    ("vortex", "reference", 0, "339\n9767036\n");
    ("bzip2", "train", 0, "30849\n");
    ("bzip2", "reference", 0, "105488\n");
    ("twolf", "train", 0, "1330\n");
    ("twolf", "reference", 0, "2192\n");
  ]

let find workload input =
  List.find_map
    (fun (w, i, code, out) ->
      if w = workload && i = input then Some (code, out) else None)
    table
