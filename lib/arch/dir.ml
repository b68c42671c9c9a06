type t = North | South | East | West

let all = [ North; South; East; West ]

let opposite = function North -> South | South -> North | East -> West | West -> East

let offset = function North -> (-1, 0) | South -> (1, 0) | East -> (0, 1) | West -> (0, -1)

let to_string = function North -> "N" | South -> "S" | East -> "E" | West -> "W"

let pp fmt d = Format.pp_print_string fmt (to_string d)

(* The identity on the representation: North -> 0, South -> 1,
   East -> 2, West -> 3, the order of [all]. *)
external index : t -> int = "%identity"

let of_index = function
  | 0 -> North
  | 1 -> South
  | 2 -> East
  | 3 -> West
  | _ -> invalid_arg "Dir.of_index"

let compare a b = Int.compare (index a) (index b)
