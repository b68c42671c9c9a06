open Iced_arch

type point = {
  rows : int;
  cols : int;
  island_rows : int;
  island_cols : int;
  spm_banks : int;
  floor : Dvfs.level;
  unroll : int;
  max_ii : int;
}

type spec = {
  fabrics : (int * int) list;
  islands : (int * int) list;
  spm_banks : int list;
  floors : Dvfs.level list;
  unrolls : int list;
  max_iis : int list;
}

let tiling_islands n m =
  List.concat_map
    (fun r ->
      if n mod r <> 0 then []
      else List.filter_map (fun c -> if m mod c = 0 then Some (r, c) else None)
             (List.init m (fun i -> i + 1)))
    (List.init n (fun i -> i + 1))

let default_spec =
  {
    fabrics = [ (6, 6) ];
    islands = tiling_islands 6 6;
    spm_banks = [ 8 ];
    floors = Dvfs.active;
    unrolls = [ 1 ];
    max_iis = [ 64 ];
  }

let is_valid p =
  p.rows > 0 && p.cols > 0 && p.island_rows > 0 && p.island_cols > 0
  && p.rows mod p.island_rows = 0
  && p.cols mod p.island_cols = 0
  && p.spm_banks >= 1
  && (p.unroll = 1 || p.unroll = 2)
  && p.max_ii >= 1
  && Dvfs.is_active p.floor

let enumerate spec =
  (* nested right-to-left so the output is lexicographic in
     (fabric, island, banks, floor, unroll, max_ii) *)
  List.concat_map
    (fun (rows, cols) ->
      List.concat_map
        (fun (island_rows, island_cols) ->
          List.concat_map
            (fun spm_banks ->
              List.concat_map
                (fun floor ->
                  List.concat_map
                    (fun unroll ->
                      List.filter_map
                        (fun max_ii ->
                          let p =
                            { rows; cols; island_rows; island_cols; spm_banks;
                              floor; unroll; max_ii }
                          in
                          if is_valid p then Some p else None)
                        spec.max_iis)
                    spec.unrolls)
                spec.floors)
            spec.spm_banks)
        spec.islands)
    spec.fabrics

let sample spec ~seed ~count =
  let all = enumerate spec in
  let n = List.length all in
  if n <= count then all
  else begin
    (* draw [count] distinct indices, then keep canonical order *)
    let rng = Iced_util.Rng.create seed in
    let picked = Iced_util.Rng.shuffle rng (List.init n (fun i -> i)) in
    let keep = List.sort_uniq compare (List.filteri (fun i _ -> i < count) picked) in
    List.filteri (fun i _ -> List.mem i keep) all
  end

let cgra p =
  if not (is_valid p) then invalid_arg "Space.cgra: invalid point";
  Cgra.make ~island:(p.island_rows, p.island_cols) ~spm_banks:p.spm_banks
    ~rows:p.rows ~cols:p.cols ()

let floor_to_string = function
  | Dvfs.Rest -> "rest"
  | Dvfs.Relax -> "relax"
  | Dvfs.Normal -> "normal"
  | Dvfs.Power_gated -> "gated"

let floor_of_string = function
  | "rest" -> Some Dvfs.Rest
  | "relax" -> Some Dvfs.Relax
  | "normal" -> Some Dvfs.Normal
  | _ -> None

let max_side = 32

let max_grid = 1024

let grid_error spec =
  let lengths =
    [ List.length spec.fabrics; List.length spec.islands; List.length spec.spm_banks;
      List.length spec.floors; List.length spec.unrolls; List.length spec.max_iis ]
  in
  (* stop multiplying once past the cap, so no length overflows it *)
  let product = List.fold_left (fun acc n -> if acc > max_grid then acc else acc * n) 1 lengths in
  if product <= max_grid then None
  else
    Some
      (Printf.sprintf
         "the grid has %s (fabrics x islands x banks x floors x unrolls x max_iis) \
          combinations, more than %d"
         (String.concat " x " (List.map string_of_int lengths))
         max_grid)

let dims_to_string (r, c) = Printf.sprintf "%dx%d" r c

let dims_of_string s =
  match String.split_on_char 'x' s with
  | [ a; b ] -> (
    let side x = x > 0 && x <= max_side in
    match (Iced_util.Nat.of_string a, Iced_util.Nat.of_string b) with
    | Some r, Some c when side r && side c -> Some (r, c)
    | _ -> None)
  | _ -> None

let default_islands fabrics =
  List.sort_uniq compare (List.concat_map (fun (r, c) -> tiling_islands r c) fabrics)

let to_string p =
  Printf.sprintf "%dx%d/i%dx%d/b%d/%s/u%d/ii%d" p.rows p.cols p.island_rows
    p.island_cols p.spm_banks (floor_to_string p.floor) p.unroll p.max_ii

let of_string s =
  match String.split_on_char '/' s with
  | [ fabric; island; banks; floor; unroll; max_ii ] -> (
    let untag tag str =
      if String.length str > String.length tag && String.starts_with ~prefix:tag str
      then Some (String.sub str (String.length tag) (String.length str - String.length tag))
      else None
    in
    let tagged_int tag str = Option.bind (untag tag str) Iced_util.Nat.of_string in
    match
      (dims_of_string fabric, Option.bind (untag "i" island) dims_of_string,
       tagged_int "b" banks, floor_of_string floor, tagged_int "u" unroll,
       tagged_int "ii" max_ii)
    with
    | Some (rows, cols), Some (island_rows, island_cols), Some spm_banks,
      Some floor, Some unroll, Some max_ii ->
      let p =
        { rows; cols; island_rows; island_cols; spm_banks; floor; unroll; max_ii }
      in
      if is_valid p then Some p else None
    | _ -> None)
  | _ -> None

let pp fmt p = Format.pp_print_string fmt (to_string p)
