(* Outputs of the simulator at the commit that added the benchmark.
   Every run checks against them; a change that alters results on
   purpose updates them in the same change and says why.  A failing
   check prints the value it got. *)

(* sweep-quick: cells in one pass, and the MD5 of each rendered table
   (equal to the MD5 of `rn_cli experiment ID --no-cache` output). *)
let sweep_cells = 164

let sweep_digests =
  [
    ("E1", "3c119927b727bfac19aff2893bf480ad");
    ("E4a", "4ef7be96ea6a271e41b2eb33913a629b");
    ("E4b", "23babba0aabba0738c8c9f4f8ebf82b0");
    ("E4c", "6bdcf75d8babf1056ed99fdaf98076f7");
    ("E5", "2f1218d0c3fb37ecafc7619fe530eab1");
    ("E6", "bb8d0708565dba4a14d64c7f076fff9a");
    ("E7", "e5749e9e9930dbb67afb7d2d9049e4ed");
    ("E8a", "01d6c42611a4a1f72c088633890b589f");
    ("E8b", "7ce77d04cdff2864c9d5ccc2b39f628b");
    ("A2", "d38bd2de6381232e25456b77403f655c");
    ("A3", "e1aac3b0fdf9e824101bb3a31cc16c6f");
    ("A4", "d4fe2d924c4760ef4f3ce80541cfb74f");
    ("A5", "9602e15058b2bf1b7ba76b3407a311f4");
    ("A7", "935d847c94810e2778f8fbcc4bb6145a");
    ("A8", "a24fab4117eae1c4a12bd57dc7b459cd");
  ]

(* beacon-sparse-n64k: the world seed of each input variant (the seed
   mod 8).  Each gives a connected world on the generator's first
   attempt, so every input costs the same to build. *)
let sparse_world_seeds = [| 379422; 379423; 379424; 379425; 379426; 379428; 379429; 379430 |]

(* Beacon workloads: sends, deliveries and collisions of one run, by
   input variant. *)
let sparse_counts =
  [|
    (523347, 12461, 1559385);
    (524148, 12265, 1558608);
    (524158, 11988, 1559103);
    (524507, 12243, 1558424);
    (523320, 12400, 1559468);
    (525779, 11664, 1557942);
    (523318, 12456, 1559330);
    (523692, 12530, 1558988);
  |]

let dense_counts =
  [|
    (65369, 0, 65703);
    (65406, 0, 65666);
    (65565, 0, 65507);
    (65388, 0, 65684);
    (65790, 0, 65282);
    (65732, 0, 65340);
    (65675, 0, 65397);
    (65315, 0, 65757);
  |]
