type t = Default | Sa of int | Pathfinder

let default_seed = 0x51ced
let default = Default
let sa = Sa default_seed
let pathfinder = Pathfinder

let is_default t = t = Default

let to_string = function
  | Default -> "default"
  | Pathfinder -> "pathfinder"
  | Sa seed -> if seed = default_seed then "sa" else Printf.sprintf "sa:%d" seed

let of_string s =
  match s with
  | "default" -> Ok Default
  | "pathfinder" -> Ok Pathfinder
  | "sa" -> Ok sa
  | _ -> (
    (* a canonical seed, so to_string stays the exact inverse (no
       "-1", "0x2a", "007" or "1_000" aliases) *)
    let seed =
      if String.starts_with ~prefix:"sa:" s then
        Iced_util.Nat.of_string (String.sub s 3 (String.length s - 3))
      else None
    in
    match seed with
    | Some seed -> Ok (Sa seed)
    | None ->
      Error
        (Printf.sprintf
           "unknown mapper backend %S (expected default, sa, sa:<seed>, or pathfinder)" s))

let names = [ "default"; "sa"; "pathfinder" ]
