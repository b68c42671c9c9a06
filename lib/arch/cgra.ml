type t = {
  rows : int;
  cols : int;
  island_rows : int;
  island_cols : int;
  spm_banks : int;
  spm_kbytes : int;
}

let make ?(island = (2, 2)) ?(spm_banks = 8) ?(spm_kbytes = 32) ~rows ~cols () =
  let island_rows, island_cols = island in
  if rows <= 0 || cols <= 0 then invalid_arg "Cgra.make: non-positive fabric size";
  if island_rows <= 0 || island_cols <= 0 then invalid_arg "Cgra.make: non-positive island size";
  if island_rows > rows || island_cols > cols then
    invalid_arg "Cgra.make: island larger than fabric";
  if spm_banks <= 0 || spm_kbytes <= 0 then invalid_arg "Cgra.make: non-positive SPM size";
  { rows; cols; island_rows; island_cols; spm_banks; spm_kbytes }

let iced_6x6 = make ~rows:6 ~cols:6 ()

let per_tile t = { t with island_rows = 1; island_cols = 1 }

let with_island t (island_rows, island_cols) =
  make ~island:(island_rows, island_cols) ~spm_banks:t.spm_banks ~spm_kbytes:t.spm_kbytes
    ~rows:t.rows ~cols:t.cols ()

let tile_count t = t.rows * t.cols

let in_bounds t ~row ~col = row >= 0 && row < t.rows && col >= 0 && col < t.cols

let tile_id t ~row ~col =
  if not (in_bounds t ~row ~col) then invalid_arg "Cgra.tile_id: out of bounds";
  (row * t.cols) + col

let check_tile t id =
  if id < 0 || id >= tile_count t then invalid_arg "Cgra.position: out of bounds"

let position t id =
  check_tile t id;
  (id / t.cols, id mod t.cols)

let neighbor t id dir =
  let row, col = position t id in
  let dr, dc = Dir.offset dir in
  let row = row + dr and col = col + dc in
  if in_bounds t ~row ~col then Some (tile_id t ~row ~col) else None

let neighbors t id =
  List.filter_map (fun dir -> Option.map (fun n -> (dir, n)) (neighbor t id dir)) Dir.all

let has_memory_port t id =
  let _, col = position t id in
  col = 0

let memory_tiles t = List.init t.rows (fun row -> tile_id t ~row ~col:0)

(* [manhattan] and [island_of] do their row/column arithmetic in place
   rather than through [position]'s tuple; they are the reference that
   [geometry]'s tables are built from and tested against. *)
let manhattan t a b =
  check_tile t a;
  check_tile t b;
  abs ((a / t.cols) - (b / t.cols)) + abs ((a mod t.cols) - (b mod t.cols))

let island_grid_cols t = (t.cols + t.island_cols - 1) / t.island_cols
let island_grid_rows t = (t.rows + t.island_rows - 1) / t.island_rows

let island_count t = island_grid_rows t * island_grid_cols t

let island_of t id =
  check_tile t id;
  let row = id / t.cols and col = id mod t.cols in
  ((row / t.island_rows) * island_grid_cols t) + (col / t.island_cols)

let islands t = List.init (island_count t) (fun i -> i)

type geometry = {
  row : int array;
  col : int array;
  island : int array;
  neighbor : int array;
}

let geometry t =
  let n = tile_count t in
  let neighbor = Array.make (4 * n) (-1) in
  for id = 0 to n - 1 do
    List.iter (fun (dir, next) -> neighbor.((4 * id) + Dir.index dir) <- next) (neighbors t id)
  done;
  {
    row = Array.init n (fun id -> id / t.cols);
    col = Array.init n (fun id -> id mod t.cols);
    island = Array.init n (island_of t);
    neighbor;
  }

let hops g a b = abs (g.row.(a) - g.row.(b)) + abs (g.col.(a) - g.col.(b))

(* An island is the block of rows [r0, r1) x columns [c0, c1), clipped
   at the fabric edge; walking it backwards row-major and consing
   yields ascending ids. *)
let island_tiles t island =
  if island < 0 || island >= island_count t then invalid_arg "Cgra.island_tiles: unknown island";
  let grid_cols = island_grid_cols t in
  let r0 = (island / grid_cols) * t.island_rows in
  let c0 = (island mod grid_cols) * t.island_cols in
  let r1 = min t.rows (r0 + t.island_rows) and c1 = min t.cols (c0 + t.island_cols) in
  let acc = ref [] in
  for row = r1 - 1 downto r0 do
    for col = c1 - 1 downto c0 do
      acc := ((row * t.cols) + col) :: !acc
    done
  done;
  !acc

let restrict t ~islands:wanted =
  List.filter (fun id -> List.mem (island_of t id) wanted) (List.init (tile_count t) (fun i -> i))

let pp fmt t =
  Format.fprintf fmt "%dx%d CGRA, %dx%d islands (%d), %d KB SPM / %d banks" t.rows t.cols
    t.island_rows t.island_cols (island_count t) t.spm_kbytes t.spm_banks
