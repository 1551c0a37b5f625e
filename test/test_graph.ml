(* Tests for rn_graph: graphs, algorithms, dual graphs and generators. *)

module Graph = Rn_graph.Graph
module Algo = Rn_graph.Algo
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Rng = Rn_util.Rng
module Point = Rn_geom.Point

let qtest = QCheck_alcotest.to_alcotest

(* Random edge lists over a small node range. *)
let arb_edges n =
  QCheck.(
    list_of_size (Gen.int_range 0 60)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    |> map (List.filter (fun (u, v) -> u <> v)))

(* ---------------- Graph ---------------- *)

let test_graph_dedup () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 0); (0, 1); (2, 3) ] in
  Alcotest.check Alcotest.int "edge count" 2 (Graph.edge_count g);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "symmetric" true (Graph.mem_edge g 1 0)

let test_graph_errors () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self loop")
    (fun () -> ignore (Graph.of_edges 3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges 3 [ (0, 3) ]))

(* With n = 0 no key is canonical; the checks must say so rather than
   divide by n. *)
let test_packed_bad_keys () =
  let raises name f = Alcotest.check_raises name (Invalid_argument name) (fun () -> ignore (f ())) in
  raises "Graph.of_packed: bad key" (fun () -> Graph.of_packed 0 [| 0 |]);
  raises "Graph.of_packed_unsorted: bad key" (fun () -> Graph.of_packed_unsorted 0 [| 5 |]);
  raises "Dual.make_packed: bad gray key" (fun () ->
      Dual.make_packed ~g:(Graph.of_packed 0 [||]) ~gray_pk:[| 0 |] ());
  Alcotest.check Alcotest.int "n = 0, no keys" 0
    (Graph.edge_count (Graph.of_packed_unsorted 0 [||]));
  (* u >= v and negative keys, on both sides of the sort's cutoff *)
  raises "Graph.of_packed: bad key" (fun () -> Graph.of_packed 4 [| 4 |]);
  raises "Graph.of_packed_unsorted: bad key" (fun () -> Graph.of_packed_unsorted 4 [| 1; -1 |]);
  raises "Graph.of_packed_unsorted: bad key" (fun () ->
      Graph.of_packed_unsorted 64 (Array.init 1000 (fun i -> if i = 999 then 64 else 1 + (i mod 63))));
  raises "Dual.make_packed: bad gray key" (fun () ->
      Dual.make_packed ~g:(Graph.of_edges 4 []) ~gray_pk:[| 5 |] ())

let test_graph_neighbors_sorted () =
  let g = Graph.of_edges 5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array Alcotest.int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2);
  Alcotest.check Alcotest.int "degree" 4 (Graph.degree g 2);
  Alcotest.check Alcotest.int "max degree" 4 (Graph.max_degree g)

let prop_mem_edge_consistent =
  QCheck.Test.make ~name:"mem_edge matches edge list" ~count:200 (arb_edges 12)
    (fun edges ->
      let g = Graph.of_edges 12 edges in
      let canon (u, v) = if u < v then (u, v) else (v, u) in
      let set = List.sort_uniq compare (List.map canon edges) in
      List.for_all (fun (u, v) -> Graph.mem_edge g u v) set
      && List.length (Graph.edges g) = List.length set)

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:200 (arb_edges 12) (fun edges ->
      let g = Graph.of_edges 12 edges in
      Graph.fold_nodes (fun v acc -> acc + Graph.degree g v) g 0
      = 2 * Graph.edge_count g)

let test_graph_union () =
  let a = Graph.of_edges 4 [ (0, 1) ] and b = Graph.of_edges 4 [ (1, 2) ] in
  let u = Graph.union a b in
  Alcotest.check Alcotest.int "union edges" 2 (Graph.edge_count u);
  Alcotest.(check bool) "subgraph a" true (Graph.is_subgraph a u);
  Alcotest.(check bool) "subgraph b" true (Graph.is_subgraph b u);
  Alcotest.(check bool) "not subgraph u of a" false (Graph.is_subgraph u a)

let test_graph_induced () =
  let g = Gen.clique 5 in
  let sub = Graph.induced g (fun v -> v < 3) in
  Alcotest.check Alcotest.int "induced K3" 3 (Graph.edge_count sub)

(* ---------------- Builder ---------------- *)

(* Every graph comes from one builder; these hold it to oracles that
   share none of its code. *)

type bshape = Random | Ascending | Descending | Duplicates | One_row | All_equal | Band

let bshapes = [ Random; Ascending; Descending; Duplicates; One_row; All_equal; Band ]

let bshape_name = function
  | Random -> "random"
  | Ascending -> "ascending"
  | Descending -> "descending"
  | Duplicates -> "duplicates"
  | One_row -> "one row"
  | All_equal -> "all equal"
  | Band -> "circulant band"

(* About [len] canonical keys [u * n + v], [u < v], of the given shape,
   drawn from [seed]; none exist below n = 2.  [Band] wraps around:
   node u links to u + 1 .. u + w mod n, so the rows near n - 1 take
   keys from both ends of the key range. *)
let builder_keys ~n ~shape ~len seed =
  if n < 2 then [||]
  else begin
    let rng = Rng.create seed in
    let canon u v = (min u v * n) + max u v in
    let key () =
      let u = Rng.int rng n and v = Rng.int rng (n - 1) in
      canon u (if v >= u then v + 1 else v)
    in
    match shape with
    | Random -> Array.init len (fun _ -> key ())
    | Ascending | Descending ->
      let a = Array.init len (fun _ -> key ()) in
      Array.sort (if shape = Ascending then compare else fun x y -> compare y x) a;
      a
    | Duplicates ->
      let pool = Array.init (1 + (len / 8)) (fun _ -> key ()) in
      Array.init len (fun _ -> pool.(Rng.int rng (Array.length pool)))
    | One_row ->
      let u = Rng.int rng (n - 1) in
      Array.init len (fun _ -> (u * n) + u + 1 + Rng.int rng (n - 1 - u))
    | All_equal -> Array.make len (key ())
    | Band ->
      let w = 1 + Rng.int rng (min 8 (n - 1)) in
      Array.init (n * w) (fun i -> canon (i / w) (((i / w) + 1 + (i mod w)) mod n))
  end

(* The sorted, duplicate-free rows and the edge count of [keys], by
   [List.sort_uniq] on pairs. *)
let oracle_rows n keys =
  let pairs = List.sort_uniq compare (List.map (fun e -> (e / n, e mod n)) (Array.to_list keys)) in
  let rows = Array.make n [] in
  List.iter
    (fun (u, v) ->
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    pairs;
  (Array.map (fun l -> Array.of_list (List.sort compare l)) rows, List.length pairs)

(* [g] has exactly these rows: node by node, then the counts. *)
let matches_rows g (rows, m) =
  let ok = ref (Graph.n g = Array.length rows && Graph.edge_count g = m) in
  Array.iteri (fun v r -> if !ok && Graph.neighbors g v <> r then ok := false) rows;
  !ok && Graph.max_degree g = Array.fold_left (fun acc r -> max acc (Array.length r)) 0 rows

let same_graph a b =
  Graph.n a = Graph.n b
  && Graph.edge_count a = Graph.edge_count b
  && Graph.max_degree a = Graph.max_degree b
  && List.for_all (fun v -> Graph.neighbors a v = Graph.neighbors b v) (List.init (Graph.n a) Fun.id)

let prop_builder_oracle =
  let gen =
    let open QCheck.Gen in
    oneofl [ 1; 2; 3; 64; 4096 ] >>= fun n ->
    oneofl bshapes >>= fun shape ->
    oneof [ int_bound 40; int_bound 3000 ] >>= fun len ->
    int_bound 1_000_000 >|= fun seed -> (n, shape, len, seed)
  in
  let print (n, shape, len, seed) =
    Printf.sprintf "n=%d %s len=%d seed=%d" n (bshape_name shape) len seed
  in
  QCheck.Test.make ~name:"of_packed_unsorted = sort_uniq oracle" ~count:400
    (QCheck.make ~print gen) (fun (n, shape, len, seed) ->
      let keys = builder_keys ~n ~shape ~len seed in
      let before = Array.copy keys in
      let g = Graph.of_packed_unsorted n keys in
      matches_rows g (oracle_rows n keys) && keys = before)

(* On strictly ascending keys the two entry points build the same
   graph. *)
let prop_builder_of_packed =
  QCheck.Test.make ~name:"of_packed = of_packed_unsorted on ascending keys" ~count:200
    QCheck.(pair (oneofl [ 2; 3; 64; 4096 ]) (int_bound 1_000_000))
    (fun (n, seed) ->
      let keys =
        Array.of_list (List.sort_uniq compare (Array.to_list (builder_keys ~n ~shape:Random ~len:500 seed)))
      in
      same_graph (Graph.of_packed n keys) (Graph.of_packed_unsorted n keys))

(* A +-192 band at n = 1024: its wrapped rows arrive out of order and
   take the per-row sort. *)
let test_builder_band () =
  let n = 1024 and w = 192 in
  let keys =
    Array.init (n * w) (fun i ->
        let u = i / w and v = ((i / w) + 1 + (i mod w)) mod n in
        (min u v * n) + max u v)
  in
  let sorted = List.sort_uniq compare (Array.to_list keys) in
  let g = Graph.of_packed_unsorted n keys in
  Alcotest.(check int) "edges" (n * w) (Graph.edge_count g);
  Alcotest.(check int) "max degree" (2 * w) (Graph.max_degree g);
  Alcotest.(check bool) "= of_packed on the sorted keys" true
    (same_graph g (Graph.of_packed n (Array.of_list sorted)))

(* [of_packed]'s checks, key by key as before the builder: a key that is
   not canonical is reported before a descent at the same index. *)
let of_packed_oracle n keys =
  let canonical e = n > 0 && e >= 0 && e / n < e mod n in
  let err = ref None in
  Array.iteri
    (fun i e ->
      if !err = None then
        if not (canonical e) then err := Some "Graph.of_packed: bad key"
        else if i > 0 && keys.(i - 1) >= e then err := Some "Graph.of_packed: keys not ascending")
    keys;
  !err

let prop_of_packed_errors =
  QCheck.Test.make ~name:"of_packed errors = oracle" ~count:300 QCheck.small_nat (fun seed ->
      let rng = Rng.create (0xB17D + seed) in
      let n = Rng.int rng 10 in
      let keys =
        Array.of_list (List.sort_uniq compare (Array.to_list (builder_keys ~n ~shape:Random ~len:12 seed)))
      in
      if Array.length keys > 0 && Rng.int rng 3 > 0 then begin
        let i = Rng.int rng (Array.length keys) in
        keys.(i) <-
          (match Rng.int rng 4 with
          | 0 -> -1 - Rng.int rng 5
          | 1 -> (n * n) + Rng.int rng 3
          | 2 -> if i > 0 then keys.(i - 1) else keys.(i) + n
          | _ -> keys.(i) - 1 - Rng.int rng 3)
      end;
      let got =
        match Graph.of_packed n keys with
        | _ -> None
        | exception Invalid_argument m -> Some m
      in
      got = of_packed_oracle n keys)

(* Error cases of the builder that sat with the packed-key sort before. *)
let test_builder_errors () =
  let bad = Invalid_argument "Graph.of_packed_unsorted: bad key" in
  Alcotest.check_raises "n = 0" bad (fun () -> ignore (Graph.of_packed_unsorted 0 [| 0 |]));
  Alcotest.check_raises "key = n^2" bad (fun () -> ignore (Graph.of_packed_unsorted 4 [| 16 |]));
  Alcotest.check_raises "negative key" bad (fun () -> ignore (Graph.of_packed_unsorted 4 [| -1 |]));
  (* a rejected array is left as it was, long or short *)
  List.iter
    (fun len ->
      let a = Array.init len (fun i -> 1 + ((len - i) mod 3)) in
      a.(len - 1) <- 16;
      let before = Array.copy a in
      Alcotest.check_raises "bad last key" bad (fun () -> ignore (Graph.of_packed_unsorted 4 a));
      Alcotest.(check (array int)) "unchanged" before a)
    [ 3; 1000 ]

(* ---------------- Algo ---------------- *)

let test_bfs_path () =
  let g = Gen.path 5 in
  let d = Algo.bfs_dist g 0 in
  Alcotest.(check (array Alcotest.int)) "distances" [| 0; 1; 2; 3; 4 |] d;
  Alcotest.check Alcotest.int "diameter" 4 (Algo.diameter g);
  Alcotest.check Alcotest.int "eccentricity mid" 2 (Algo.eccentricity g 2)

let test_bfs_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  let d = Algo.bfs_dist g 0 in
  Alcotest.(check bool) "unreachable" true (d.(3) = Algo.unreachable);
  Alcotest.(check bool) "not connected" true (not (Algo.is_connected g));
  Alcotest.check Alcotest.int "components" 3 (Algo.connected_components g)

let test_ring_diameter () =
  Alcotest.check Alcotest.int "ring 8 diameter" 4 (Algo.diameter (Gen.ring 8));
  Alcotest.check Alcotest.int "ring 9 diameter" 4 (Algo.diameter (Gen.ring 9))

let test_within_hops () =
  let g = Gen.path 6 in
  Alcotest.(check (list Alcotest.int)) "2 hops of node 0" [ 1; 2 ] (Algo.within_hops g 0 2);
  Alcotest.(check (list Alcotest.int)) "1 hop of node 3" [ 2; 4 ] (Algo.within_hops g 3 1)

let test_connected_subset () =
  let g = Gen.path 5 in
  Alcotest.(check bool) "contiguous" true (Algo.is_connected_subset g [ 1; 2; 3 ]);
  Alcotest.(check bool) "gap" false (Algo.is_connected_subset g [ 0; 2 ]);
  Alcotest.(check bool) "empty" true (Algo.is_connected_subset g []);
  Alcotest.(check bool) "singleton" true (Algo.is_connected_subset g [ 4 ])

let prop_shortest_path_valid =
  QCheck.Test.make ~name:"shortest_path is a valid shortest path" ~count:200
    (arb_edges 10) (fun edges ->
      let g = Graph.of_edges 10 edges in
      let d = Algo.bfs_dist g 0 in
      List.for_all
        (fun dst ->
          match Algo.shortest_path g 0 dst with
          | None -> d.(dst) = Algo.unreachable
          | Some path ->
            let rec ok = function
              | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
              | [ last ] -> last = dst
              | [] -> false
            in
            List.hd path = 0 && ok path && List.length path = d.(dst) + 1)
        (List.init 10 Fun.id))

let test_independent_set () =
  let g = Gen.path 5 in
  Alcotest.(check bool) "alternating" true (Algo.is_independent_set g [ 0; 2; 4 ]);
  Alcotest.(check bool) "adjacent" false (Algo.is_independent_set g [ 0; 1 ])

(* ---------------- Gen ---------------- *)

let test_shapes () =
  Alcotest.check Alcotest.int "clique edges" 10 (Graph.edge_count (Gen.clique 5));
  Alcotest.check Alcotest.int "path edges" 4 (Graph.edge_count (Gen.path 5));
  Alcotest.check Alcotest.int "ring edges" 5 (Graph.edge_count (Gen.ring 5));
  Alcotest.check Alcotest.int "star edges" 4 (Graph.edge_count (Gen.star 5));
  Alcotest.check Alcotest.int "star centre degree" 4 (Graph.degree (Gen.star 5) 0)

let test_geometric_instance () =
  let rng = Rng.create 8 in
  let spec = Gen.default_spec ~n:60 ~side:(Gen.side_for_degree ~n:60 ~target_degree:10) () in
  let dual = Gen.geometric ~rng spec in
  Alcotest.(check bool) "G connected" true (Algo.is_connected (Dual.g dual));
  Alcotest.(check bool) "E subset E'" true (Graph.is_subgraph (Dual.g dual) (Dual.g' dual));
  let pos = match Dual.positions dual with Some p -> p | None -> Alcotest.fail "no positions" in
  (* spot-check the geometric constraints *)
  let n = Dual.n dual in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Rn_geom.Point.dist pos.(u) pos.(v) in
      if d <= 1.0 then
        Alcotest.(check bool) "unit pair reliable" true (Graph.mem_edge (Dual.g dual) u v);
      if Graph.mem_edge (Dual.g' dual) u v then
        Alcotest.(check bool) "G' edge within d" true (d <= spec.d +. 1e-9)
    done
  done

let test_geometric_deterministic () =
  let mk seed =
    let rng = Rng.create seed in
    Gen.geometric ~rng (Gen.default_spec ~n:40 ~side:4.0 ())
  in
  let a = mk 5 and b = mk 5 in
  Alcotest.(check bool) "same seed same graph" true
    (Graph.edges (Dual.g a) = Graph.edges (Dual.g b))

let test_grid_jitter_connected () =
  let rng = Rng.create 2 in
  let dual = Gen.grid_jitter ~rng ~rows:6 ~cols:7 () in
  Alcotest.check Alcotest.int "node count" 42 (Dual.n dual);
  Alcotest.(check bool) "connected" true (Algo.is_connected (Dual.g dual))

let test_bridge_cliques () =
  let beta = 5 in
  let dual = Gen.bridge_cliques ~beta () in
  let g = Dual.g dual in
  Alcotest.check Alcotest.int "n" 10 (Dual.n dual);
  (* two K5 plus the bridge *)
  Alcotest.check Alcotest.int "edges" ((2 * 10) + 1) (Graph.edge_count g);
  Alcotest.(check bool) "bridge edge" true (Graph.mem_edge g 0 beta);
  Alcotest.(check bool) "no other cross edge" false (Graph.mem_edge g 1 (beta + 1));
  Alcotest.check Alcotest.int "gray count" ((beta * beta) - 1) (Dual.gray_count dual);
  Alcotest.(check bool) "G' complete" true
    (Graph.edge_count (Dual.g' dual) = 10 * 9 / 2);
  Alcotest.(check bool) "connected" true (Algo.is_connected g)

let test_bridge_custom_endpoints () =
  let dual = Gen.bridge_cliques ~beta:4 ~bridge_a:2 ~bridge_b:6 () in
  Alcotest.(check bool) "custom bridge" true (Graph.mem_edge (Dual.g dual) 2 6);
  Alcotest.(check bool) "default bridge absent" false (Graph.mem_edge (Dual.g dual) 0 4)

let test_clusters_generator () =
  let rng = Rng.create 3 in
  let dual = Gen.clusters ~rng ~clusters:4 ~per_cluster:10 () in
  Alcotest.(check bool) "connected" true (Algo.is_connected (Dual.g dual));
  Alcotest.(check bool) "E subset E'" true (Graph.is_subgraph (Dual.g dual) (Dual.g' dual));
  Alcotest.(check bool) "has positions" true (Dual.positions dual <> None);
  Alcotest.(check bool) "at least the cluster members" true (Dual.n dual >= 40)

let test_side_for_degree () =
  Alcotest.(check bool) "larger degree smaller box" true
    (Gen.side_for_degree ~n:100 ~target_degree:20
    < Gen.side_for_degree ~n:100 ~target_degree:10)

(* ---------------- Dual ---------------- *)

let test_dual_classic () =
  let d = Dual.classic (Gen.ring 6) in
  Alcotest.check Alcotest.int "no gray" 0 (Dual.gray_count d);
  Alcotest.(check bool) "G = G'" true
    (Graph.edges (Dual.g d) = Graph.edges (Dual.g' d))

let test_dual_gray_adj () =
  let g = Gen.path 4 in
  let dual = Dual.make ~g ~gray:[ (0, 2); (1, 3) ] () in
  Alcotest.check Alcotest.int "gray count" 2 (Dual.gray_count dual);
  (* each gray edge indexed consistently from both endpoints *)
  Array.iteri
    (fun e (u, v) ->
      let has node other =
        Array.exists (fun (w, i) -> w = other && i = e) (Dual.gray_adj dual node)
      in
      Alcotest.(check bool) "endpoint u sees e" true (has u v);
      Alcotest.(check bool) "endpoint v sees e" true (has v u))
    (Dual.gray_edges dual)

(* Random duals at and around powers of two, where the bit width of the
   packed incidence's neighbour field changes. *)
let arb_dual =
  let open QCheck.Gen in
  let edges n k = list_size (int_range 0 k) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
  let loopless = List.filter (fun (u, v) -> u <> v) in
  let gen =
    oneofl [ 2; 63; 64; 65; 255; 256; 257; 1000 ] >>= fun n ->
    edges n (2 * n) >>= fun rel ->
    edges n (3 * n) >|= fun gray ->
    Dual.make ~g:(Graph.of_edges n (loopless rel)) ~gray:(loopless gray) ()
  in
  QCheck.make ~print:(Fmt.to_to_string Dual.pp) gen

(* [iter_gray_adj] at [v] yields exactly the gray ids incident to [v], in
   strictly descending order, each paired with [gray_other t id v]; and
   every id turns up once at each endpoint. *)
let prop_gray_incidence_layout =
  QCheck.Test.make ~name:"gray incidence: ids, order, neighbours" ~count:200 arb_dual
    (fun dual ->
      let n = Dual.n dual and ng = Dual.gray_count dual in
      let expected = Array.make n [] and seen = Array.make ng 0 in
      for id = 0 to ng - 1 do
        let u = Dual.gray_u dual id and v = Dual.gray_v dual id in
        expected.(u) <- id :: expected.(u);
        expected.(v) <- id :: expected.(v)
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        let ids = ref [] in
        Dual.iter_gray_adj
          (fun w id ->
            if w <> Dual.gray_other dual id v then ok := false;
            seen.(id) <- seen.(id) + 1;
            ids := id :: !ids)
          dual v;
        if List.rev !ids <> expected.(v) then ok := false
      done;
      !ok && Array.for_all (( = ) 2) seen)

(* [reach_rows] row [v] is exactly N_G'(v). *)
let prop_reach_rows =
  QCheck.Test.make ~name:"reach rows = N_G' rows" ~count:100 arb_dual (fun dual ->
      let rows = Dual.reach_rows dual and g' = Dual.g' dual in
      Array.length rows = Dual.n dual
      && Array.for_all Fun.id
           (Array.mapi
              (fun v row ->
                Rn_util.Bitset.to_list row = Array.to_list (Graph.neighbors g' v))
              rows))

(* The key validation [make_packed] had before it advanced the lower
   endpoint by comparison: two divisions and a [Graph.mem_edge] search
   per key.  The error of the first failing key, or [None]. *)
let packed_keys_oracle g gray_pk =
  let n = Graph.n g in
  try
    Array.iteri
      (fun i e ->
        if n = 0 || e < 0 || e / n >= e mod n then failwith "Dual.make_packed: bad gray key";
        if i > 0 && gray_pk.(i - 1) >= e then failwith "Dual.make_packed: keys not ascending";
        if Graph.mem_edge g (e / n) (e mod n) then
          failwith "Dual.make_packed: gray edge already reliable")
      gray_pk;
    None
  with Failure m -> Some m

(* Key arrays that are mostly canonical and ascending, with the faults
   [make_packed] must report mixed in: negative keys, u >= v, keys past
   n * n, repeats, descents and reliable pairs, at n = 0..12.  The
   error (or acceptance) must match [packed_keys_oracle], and an
   accepted dual must list the keys as its gray edges. *)
let prop_packed_key_errors =
  QCheck.Test.make ~name:"packed key errors = oracle" ~count:500 QCheck.small_nat (fun seed ->
      let rng = Rng.create (0x9E7 + seed) in
      let n = Rng.int rng 13 in
      let rel = ref [] and gray = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          match Rng.int rng 4 with
          | 0 -> rel := (u, v) :: !rel
          | 1 | 2 -> gray := ((u * n) + v) :: !gray
          | _ -> ()
        done
      done;
      let g = Graph.of_edges n !rel in
      let keys = Array.of_list (List.rev !gray) in
      let faulty = Rng.int rng 3 > 0 && Array.length keys > 0 in
      if faulty then begin
        let i = Rng.int rng (Array.length keys) in
        let reliable = match !rel with [] -> 0 | (u, v) :: _ -> (u * n) + v in
        keys.(i) <-
          (match Rng.int rng 6 with
          | 0 -> -1 - Rng.int rng 5
          | 1 -> (let u = Rng.int rng n in (u * n) + Rng.int rng (u + 1))
          | 2 -> (n * n) + Rng.int rng (3 * n)
          | 3 -> keys.(max 0 (i - 1))
          | 4 -> keys.(Rng.int rng (Array.length keys))
          | _ -> reliable)
      end;
      let got =
        match Dual.make_packed ~g ~gray_pk:keys () with
        | dual ->
          if Dual.gray_edges dual <> Array.map (fun e -> (e / n, e mod n)) keys then
            Some "accepted, wrong gray edges"
          else None
        | exception Invalid_argument m -> Some m
      in
      let want = packed_keys_oracle g keys in
      if got <> want then
        QCheck.Test.fail_reportf "n=%d keys=[%s]: got %s, want %s" n
          (String.concat ";" (Array.to_list (Array.map string_of_int keys)))
          (Option.value ~default:"accepted" got)
          (Option.value ~default:"accepted" want);
      true)

let test_incidence_shift () =
  Alcotest.check Alcotest.int "n=2" 1 (Dual.incidence_shift ~n:2 ~ng:1);
  Alcotest.check Alcotest.int "n=64" 6 (Dual.incidence_shift ~n:64 ~ng:1);
  Alcotest.check Alcotest.int "n=65" 7 (Dual.incidence_shift ~n:65 ~ng:1);
  Alcotest.check Alcotest.int "n=2^20" 20 (Dual.incidence_shift ~n:(1 lsl 20) ~ng:1);
  (* at a 40-bit neighbour field, ids up to max_int lsr 40 still fit *)
  let top = max_int lsr 40 in
  Alcotest.check Alcotest.int "largest id fits" 40
    (Dual.incidence_shift ~n:(1 lsl 40) ~ng:(top + 1));
  Alcotest.check_raises "one id too many"
    (Invalid_argument "Dual.make_packed: gray ids overflow the packed incidence") (fun () ->
      ignore (Dual.incidence_shift ~n:(1 lsl 40) ~ng:(top + 2)))

(* The largest realistic width: n = 2^20, so neighbours fill all 20 bits
   of the field at the top node. *)
let test_incidence_n2p20 () =
  let n = 1 lsl 20 in
  let gray = [ (0, n - 1); (n - 2, n - 1); (12_345, 1 lsl 19) ] in
  let dual = Dual.make ~g:(Graph.of_edges n []) ~gray () in
  let adj v = Array.to_list (Dual.gray_adj dual v) in
  Alcotest.(check (list (pair int int))) "top node" [ (n - 2, 2); (0, 0) ] (adj (n - 1));
  Alcotest.(check (list (pair int int))) "node 0" [ (n - 1, 0) ] (adj 0);
  Alcotest.(check (list (pair int int))) "node 2^19" [ (12_345, 1) ] (adj (1 lsl 19))

let test_dual_gray_dedup () =
  let g = Gen.path 4 in
  (* gray edges already in G are dropped; duplicates collapse *)
  let dual = Dual.make ~g ~gray:[ (0, 1); (0, 2); (2, 0) ] () in
  Alcotest.check Alcotest.int "gray deduped" 1 (Dual.gray_count dual)

(* [Dual.make]'s canonicalisation before it went through the graph
   builder: sort the canonical pairs, drop repeats and G's edges (one
   [mem_edge] per pair) and hand the rest, in that order, to
   [make_packed]. *)
let dual_make_scan ~g ~gray =
  let n = Graph.n g in
  let canon (u, v) = if u < v then (u, v) else (v, u) in
  let kept =
    List.filter
      (fun (u, v) -> not (Graph.mem_edge g u v))
      (List.sort_uniq compare (List.map canon gray))
  in
  Dual.make_packed ~g ~gray_pk:(Array.of_list (List.map (fun (u, v) -> (u * n) + v) kept)) ()

(* Random tuple lists in both orientations, with repeats and a share of
   G's own edges, so the merge walk along G's rows has pairs to skip. *)
let prop_dual_make_scan =
  QCheck.Test.make ~name:"make = make_scan (gray ids and incidence)" ~count:200
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (0xD0A1 + seed) in
      let n = [| 2; 3; 17; 64; 65; 300 |].(Rng.int rng 6) in
      let pair () =
        let u = Rng.int rng n and v = Rng.int rng (n - 1) in
        (u, if v >= u then v + 1 else v)
      in
      let rel = Array.init (Rng.int rng (2 * n)) (fun _ -> pair ()) in
      let g = Graph.of_edges n (Array.to_list rel) in
      let gray =
        List.init (Rng.int rng (3 * n)) (fun _ ->
            if Array.length rel = 0 || Rng.int rng 4 > 0 then pair ()
            else begin
              let u, v = rel.(Rng.int rng (Array.length rel)) in
              if Rng.bool rng 0.5 then (v, u) else (u, v)
            end)
      in
      let a = Dual.make ~g ~gray () and b = dual_make_scan ~g ~gray in
      Dual.gray_edges a = Dual.gray_edges b
      && List.for_all (fun v -> Dual.gray_adj a v = Dual.gray_adj b v) (List.init n Fun.id))

let test_dual_geometry_validation () =
  let pos = [| Rn_geom.Point.make 0.0 0.0; Rn_geom.Point.make 0.5 0.0 |] in
  (* unit-distance pair must be a reliable edge *)
  Alcotest.check_raises "missing unit edge"
    (Invalid_argument "Dual.make: unit-distance pair missing from E") (fun () ->
      ignore (Dual.make ~pos ~g:(Graph.of_edges 2 []) ~gray:[] ()));
  let pos2 = [| Rn_geom.Point.make 0.0 0.0; Rn_geom.Point.make 5.0 0.0 |] in
  Alcotest.check_raises "edge too long" (Invalid_argument "Dual.make: G' edge longer than d")
    (fun () -> ignore (Dual.make ~pos:pos2 ~g:(Graph.of_edges 2 [ (0, 1) ]) ~gray:[] ()));
  (* a longer link in E does not stand in for the missing unit pair *)
  let pos3 =
    [| Rn_geom.Point.make 0.0 0.0; Rn_geom.Point.make 0.5 0.0; Rn_geom.Point.make 1.8 0.0 |]
  in
  Alcotest.check_raises "unit pair swapped for a long link"
    (Invalid_argument "Dual.make: unit-distance pair missing from E") (fun () ->
      ignore (Dual.make ~pos:pos3 ~g:(Graph.of_edges 3 [ (0, 2) ]) ~gray:[] ()));
  (* both faults: the missing unit pair is reported first *)
  Alcotest.check_raises "missing unit pair first"
    (Invalid_argument "Dual.make: unit-distance pair missing from E") (fun () ->
      ignore (Dual.make ~pos:pos3 ~d:1.5 ~g:(Graph.of_edges 3 [ (0, 2) ]) ~gray:[] ()));
  Alcotest.check_raises "gray edge too long"
    (Invalid_argument "Dual.make: G' edge longer than d") (fun () ->
      ignore (Dual.make ~pos:pos3 ~d:1.5 ~g:(Graph.of_edges 3 [ (0, 1) ]) ~gray:[ (0, 2) ] ()))

(* The unit-pair check counts instead of searching; it must reject
   exactly the reliable graphs that miss some pair at distance <= 1,
   also when E holds longer links that make up the edge count. *)
let prop_dual_unit_check =
  QCheck.Test.make ~name:"unit-pair check = brute force" ~count:200
    QCheck.(pair (int_range 2 30) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let pos = Array.init n (fun _ -> Point.random rng ~w:4.0 ~h:4.0) in
      let edges = ref [] and missing = ref false in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let dist = Point.dist pos.(u) pos.(v) in
          if dist <= 1.0 then
            if Rng.bool rng 0.9 then edges := (u, v) :: !edges else missing := true
          else if dist <= 2.0 && Rng.bool rng 0.3 then edges := (u, v) :: !edges
        done
      done;
      let g = Graph.of_edges n !edges in
      match Dual.make ~pos ~d:2.0 ~g ~gray:[] () with
      | _ -> not !missing
      | exception Invalid_argument m ->
        !missing && m = "Dual.make: unit-distance pair missing from E")

(* ---------------- grid world generation = naive oracle ---------------- *)

let dual_eq a b =
  Graph.n (Dual.g a) = Graph.n (Dual.g b)
  && Graph.edges (Dual.g a) = Graph.edges (Dual.g b)
  && Graph.edges (Dual.g' a) = Graph.edges (Dual.g' b)
  && Dual.gray_edges a = Dual.gray_edges b
  && Dual.d a = Dual.d b

(* Grid and naive generation on [pos] agree, and leave the RNG in the
   same state; [None] when they do, else what differed.  Agreeing
   includes rejecting the same placements the same way: with d < 1 a
   reliable link longer than d breaks the model, and both raise. *)
let positions_mismatch ?(gray_p = 0.5) ~d ~at pos =
  let r1 = Rng.create 42 and r2 = Rng.create 42 in
  let build f rng = try Ok (f ~rng ~d ~gray_p pos) with Invalid_argument m -> Error m in
  let grid = build Gen.of_positions r1 and naive = build Gen.of_positions_naive r2 in
  let at = Printf.sprintf "%s d=%.1f" at d in
  let same =
    match (grid, naive) with
    | Ok a, Ok b -> dual_eq a b
    | Error a, Error b -> a = b
    | _ -> false
  in
  if not same then Some ("grid <> naive " ^ at)
    (* draw-count equality *)
  else if Rng.bits r1 <> Rng.bits r2 then Some ("RNG stream diverged " ^ at)
  else None

(* The same on [n] random points. *)
let grid_naive_mismatch ~n ~pseed ~d =
  let prng = Rng.create pseed in
  (* spread tight enough that reliable and gray pairs both occur *)
  let side = 1.0 +. sqrt (float_of_int n) in
  let pos = Array.init n (fun _ -> Point.random prng ~w:side ~h:side) in
  positions_mismatch ~d ~at:(Printf.sprintf "at n=%d pseed=%d" n pseed) pos

let prop_grid_gen_equiv =
  QCheck.Test.make ~name:"grid of_positions = naive oracle (same RNG stream)" ~count:150
    QCheck.(triple (int_range 1 60) (int_range 0 1000) (int_range 0 2))
    (fun (n, pseed, dix) ->
      match grid_naive_mismatch ~n ~pseed ~d:[| 1.0; 2.0; 3.5 |].(dix) with
      | Some msg -> QCheck.Test.fail_report msg
      | None -> true)

(* At n <= 60 the key arrays stay below the sort's bucket-pass cutoff;
   these sizes put the reliable and gray-candidate keys through it. *)
let test_grid_gen_real_sizes () =
  List.iter
    (fun (n, pseed, d) ->
      Option.iter Alcotest.fail (grid_naive_mismatch ~n ~pseed ~d))
    [ (1000, 1, 2.0); (1777, 2, 1.0); (2500, 3, 3.5); (3000, 4, 2.0) ]

let prop_grid_gen_negative_coords =
  (* the clusters generator places points at negative coordinates; the
     grid must bucket them correctly *)
  QCheck.Test.make ~name:"grid of_positions = naive (negative coords)" ~count:60
    QCheck.(int_range 0 500)
    (fun pseed ->
      let prng = Rng.create pseed in
      let pos =
        Array.init 40 (fun _ ->
            Point.make ((Rng.float prng -. 0.5) *. 8.0) ((Rng.float prng -. 0.5) *. 8.0))
      in
      let grid = Gen.of_positions ~rng:(Rng.create 7) ~d:2.0 ~gray_p:0.3 pos in
      let naive = Gen.of_positions_naive ~rng:(Rng.create 7) ~d:2.0 ~gray_p:0.3 pos in
      dual_eq grid naive)

(* Placements where float boundaries decide: the grid's cell side is
   max d 1, and every case runs at d = 0.5 and 1.0 (cell side 1), 2.0
   and 3.5.  At d = 0.5 most of them have a reliable link longer than
   d, which both builders must reject alike. *)
let boundary_cases d =
  let c = Float.max d 1.0 in
  let pt = Point.make in
  let lattice k f = List.concat (List.init k (fun i -> List.init k (fun j -> f i j))) in
  let prng = Rng.create 11 in
  let inside () = Rng.float prng *. c *. 0.99 in
  [
    ("n = 0", [||]);
    ("n = 1", [| pt 0.3 0.7 |]);
    ( "coincident points",
      Array.append (Array.make 4 (pt 1.0 1.0)) [| pt 1.5 1.0; pt 3.0 1.0; pt 3.0 1.0 |] );
    ( "pairs at exactly 1 and exactly d",
      Array.append
        [| pt 0.0 0.0; pt 1.0 0.0; pt 0.0 1.0; pt 0.6 0.8 |]
        [| pt d 0.0; pt 0.0 d; pt (1.0 +. d) 0.0 |] );
    (* points on cell borders, the last on the grid's last row and column *)
    ( "cell borders",
      Array.of_list
        (lattice 4 (fun i j -> pt (float_of_int i *. c) (float_of_int j *. c))
        @ lattice 3 (fun i j -> pt ((float_of_int i +. 0.5) *. c) (float_of_int j *. c))) );
    ("one cell", Array.init 30 (fun _ -> pt (inside ()) (inside ())));
    ( "unit lattice",
      Array.of_list (lattice 6 (fun i j -> pt (float_of_int i) (0.5 *. float_of_int j))) );
    (* links no longer than 0.5 (some exactly 0.5), the only placements
       that satisfy the model at d = 0.5; centres on cell borders *)
    ( "tight clusters",
      Array.of_list
        (List.concat
           (lattice 3 (fun i j ->
                let x = 3.0 *. float_of_int i and y = 3.0 *. float_of_int j in
                [ pt x y; pt (x +. 0.5) y; pt (x +. 0.25) (y +. 0.4) ]))) );
  ]

let test_grid_gen_boundaries () =
  List.iter
    (fun d ->
      List.iter
        (fun (name, pos) -> Option.iter Alcotest.fail (positions_mismatch ~d ~at:name pos))
        (boundary_cases d))
    [ 0.5; 1.0; 2.0; 3.5 ]

(* A world at n = 131072, twice the size of scale_smoke.sh's pinned
   world, where a bucket sort of the gray-zone candidates already runs
   out of cache.  The pins were recorded from a build that bucket-sorted
   them, so they hold node-major emission to the same world and the
   same stream.  The MD5 covers G's packed edge keys and then the gray
   keys, in order, as 8-byte little-endian ints. *)
let test_world_pin_n131072 () =
  let n = 131072 in
  let rng = Rng.create 2 in
  let spec = Gen.default_spec ~n ~side:(Gen.side_for_degree ~n ~target_degree:16) () in
  let dual = Gen.geometric ~rng spec in
  let g = Dual.g dual in
  let b = Buffer.create (8 * (Graph.edge_count g + Dual.gray_count dual)) in
  Graph.iter_edges (fun u v -> Buffer.add_int64_le b (Int64.of_int ((u * n) + v))) g;
  for id = 0 to Dual.gray_count dual - 1 do
    Buffer.add_int64_le b (Int64.of_int ((Dual.gray_u dual id * n) + Dual.gray_v dual id))
  done;
  Alcotest.(check int) "G edges" 1045018 (Graph.edge_count g);
  Alcotest.(check int) "gray edges" 1551914 (Dual.gray_count dual);
  Alcotest.(check string)
    "md5" "3c1f5676a71b6333ffb9d5a17cc5a57c"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  Alcotest.(check int) "stream after" 1415221425286367211 (Rng.bits rng)

let () =
  Alcotest.run "rn_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "dedup" `Quick test_graph_dedup;
          Alcotest.test_case "errors" `Quick test_graph_errors;
          Alcotest.test_case "packed bad keys" `Quick test_packed_bad_keys;
          Alcotest.test_case "neighbors sorted" `Quick test_graph_neighbors_sorted;
          Alcotest.test_case "union/subgraph" `Quick test_graph_union;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          qtest prop_mem_edge_consistent;
          qtest prop_degree_sum;
        ] );
      ( "builder",
        [
          qtest prop_builder_oracle;
          qtest prop_builder_of_packed;
          Alcotest.test_case "band at n = 1024" `Quick test_builder_band;
          qtest prop_of_packed_errors;
          Alcotest.test_case "errors, input unchanged" `Quick test_builder_errors;
        ] );
      ( "algo",
        [
          Alcotest.test_case "bfs on path" `Quick test_bfs_path;
          Alcotest.test_case "disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "ring diameter" `Quick test_ring_diameter;
          Alcotest.test_case "within hops" `Quick test_within_hops;
          Alcotest.test_case "connected subset" `Quick test_connected_subset;
          Alcotest.test_case "independent set" `Quick test_independent_set;
          qtest prop_shortest_path_valid;
        ] );
      ( "gen",
        [
          Alcotest.test_case "basic shapes" `Quick test_shapes;
          Alcotest.test_case "geometric constraints" `Quick test_geometric_instance;
          Alcotest.test_case "geometric deterministic" `Quick test_geometric_deterministic;
          Alcotest.test_case "grid jitter connected" `Quick test_grid_jitter_connected;
          Alcotest.test_case "bridge cliques" `Quick test_bridge_cliques;
          Alcotest.test_case "bridge custom endpoints" `Quick test_bridge_custom_endpoints;
          Alcotest.test_case "clusters generator" `Quick test_clusters_generator;
          Alcotest.test_case "side for degree" `Quick test_side_for_degree;
        ] );
      ( "dual",
        [
          Alcotest.test_case "classic" `Quick test_dual_classic;
          Alcotest.test_case "gray adjacency" `Quick test_dual_gray_adj;
          Alcotest.test_case "gray dedup" `Quick test_dual_gray_dedup;
          qtest prop_dual_make_scan;
          qtest prop_gray_incidence_layout;
          qtest prop_reach_rows;
          qtest prop_packed_key_errors;
          Alcotest.test_case "incidence shift" `Quick test_incidence_shift;
          Alcotest.test_case "incidence at n=2^20" `Quick test_incidence_n2p20;
          Alcotest.test_case "geometry validation" `Quick test_dual_geometry_validation;
          qtest prop_dual_unit_check;
        ] );
      ( "world-gen",
        [
          qtest prop_grid_gen_equiv;
          qtest prop_grid_gen_negative_coords;
          Alcotest.test_case "grid = naive at n in [1000, 3000]" `Quick test_grid_gen_real_sizes;
          Alcotest.test_case "grid = naive, boundary cases" `Quick test_grid_gen_boundaries;
          Alcotest.test_case "world at n = 131072 pinned" `Slow test_world_pin_n131072;
        ] );
    ]
