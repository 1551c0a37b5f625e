(* Uniform hash-grid over a point set, for neighbor queries bounded by a
   fixed radius.

   Bucketing n points into square cells of side [cell] makes "all pairs
   within distance <= cell" an O(n)-expected enumeration for the bounded
   densities the geometric generators produce: each point is compared
   only against the points of its own cell and the eight surrounding
   ones, instead of against all n - 1 others.  This is what turns world
   construction (Gen.of_positions, Dual.make's embedding validation)
   from O(n^2) into O(n) expected.

   The points are stored in cell order as flat arrays: slot [k] holds
   point [ids.(k)] at ([xs.(k)], [ys.(k)]), so a scan of a cell's
   members reads unboxed floats side by side instead of chasing a
   boxed [Point.t] per member.  Cells are numbered row-major, so the
   cells of one grid row around a point are one contiguous slot range,
   and callers walk a point's 3x3 block as three such ranges. *)

type t = {
  cols : int;
  rows : int;
  start : int array; (* cell id -> first slot (CSR layout), ncells + 1 *)
  ids : int array; (* slot -> point index, ascending within a cell *)
  xs : float array; (* slot -> x coordinate *)
  ys : float array; (* slot -> y coordinate *)
  col : int array; (* point index -> its cell's column *)
  row : int array; (* point index -> its cell's row *)
  slot : int array; (* point index -> its slot *)
}

let build ~cell (pos : Point.t array) =
  if not (Float.is_finite cell) || cell <= 0.0 then invalid_arg "Grid.build: cell <= 0";
  let n = Array.length pos in
  let min_x = ref infinity and min_y = ref infinity in
  let max_x = ref neg_infinity and max_y = ref neg_infinity in
  Array.iter
    (fun (p : Point.t) ->
      if p.Point.x < !min_x then min_x := p.Point.x;
      if p.Point.y < !min_y then min_y := p.Point.y;
      if p.Point.x > !max_x then max_x := p.Point.x;
      if p.Point.y > !max_y then max_y := p.Point.y)
    pos;
  let min_x = if n = 0 then 0.0 else !min_x and min_y = if n = 0 then 0.0 else !min_y in
  let span v lo = int_of_float ((v -. lo) /. cell) in
  let cols = if n = 0 then 1 else 1 + span !max_x min_x in
  let rows = if n = 0 then 1 else 1 + span !max_y min_y in
  let ncells = cols * rows in
  let col = Array.map (fun (p : Point.t) -> span p.Point.x min_x) pos in
  let row = Array.map (fun (p : Point.t) -> span p.Point.y min_y) pos in
  (* counting sort into CSR: one pass to count, one to place *)
  let count = Array.make (ncells + 1) 0 in
  for i = 0 to n - 1 do
    let c = (row.(i) * cols) + col.(i) in
    count.(c + 1) <- count.(c + 1) + 1
  done;
  for c = 1 to ncells do
    count.(c) <- count.(c) + count.(c - 1)
  done;
  let start = Array.copy count in
  let ids = Array.make n 0 and slot = Array.make n 0 in
  let xs = Array.create_float n and ys = Array.create_float n in
  (* placing in index order keeps each cell's ids ascending *)
  Array.iteri
    (fun i (p : Point.t) ->
      let c = (row.(i) * cols) + col.(i) in
      let k = count.(c) in
      ids.(k) <- i;
      slot.(i) <- k;
      xs.(k) <- p.Point.x;
      ys.(k) <- p.Point.y;
      count.(c) <- k + 1)
    pos;
  { cols; rows; start; ids; xs; ys; col; row; slot }

let adjacent t u v = abs (t.col.(u) - t.col.(v)) <= 1 && abs (t.row.(u) - t.row.(v)) <= 1

(* Every unordered pair in the same or adjacent cells is taken once:
   slot i of cell c against the later slots of c and all of the cell to
   its east (one contiguous range), then against the three cells of the
   next row from south-west to south-east (another).  The distance is
   [Point.dist] of the two points bit for bit: a difference and its
   negation square to the same float, so the slot order does not
   matter.  The counts are branch-free: about as many pairs fall inside
   as outside each radius, so a branch would mispredict half the time.
   Every [j] below is a slot, hence the unchecked reads. *)
let count_pairs t r1 r2 =
  let near = ref 0 and far = ref 0 in
  let xs = t.xs and ys = t.ys in
  for cy = 0 to t.rows - 1 do
    for cx = 0 to t.cols - 1 do
      let c = (cy * t.cols) + cx in
      let east_hi = t.start.(if cx + 1 < t.cols then c + 2 else c + 1) in
      let south = (cy + 1) * t.cols in
      let south_lo = if cy + 1 < t.rows then t.start.(south + max 0 (cx - 1)) else 0 in
      let south_hi =
        if cy + 1 < t.rows then t.start.(south + min (t.cols - 1) (cx + 1) + 1) else 0
      in
      for i = t.start.(c) to t.start.(c + 1) - 1 do
        let x = xs.(i) and y = ys.(i) in
        for j = i + 1 to east_hi - 1 do
          let dx = x -. Array.unsafe_get xs j and dy = y -. Array.unsafe_get ys j in
          let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
          let a = Bool.to_int (dist <= r1) in
          near := !near + a;
          far := !far + (Bool.to_int (dist <= r2) land (a lxor 1))
        done;
        for j = south_lo to south_hi - 1 do
          let dx = x -. Array.unsafe_get xs j and dy = y -. Array.unsafe_get ys j in
          let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
          let a = Bool.to_int (dist <= r1) in
          near := !near + a;
          far := !far + (Bool.to_int (dist <= r2) land (a lxor 1))
        done
      done
    done
  done;
  (!near, !far)
