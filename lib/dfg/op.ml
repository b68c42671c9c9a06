type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Cmp of cmp
  | Select
  | Phi
  | Load
  | Store
  | Const of int
  | Gep
  | Route

let needs_memory = function Load | Store -> true | _ -> false

let latency _ = 1

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Cmp c -> "cmp." ^ cmp_to_string c
  | Select -> "select"
  | Phi -> "phi"
  | Load -> "load"
  | Store -> "store"
  | Const n -> Printf.sprintf "const(%d)" n
  | Gep -> "gep"
  | Route -> "route"

let pp fmt op = Format.pp_print_string fmt (to_string op)
