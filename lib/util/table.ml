type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let fmt_float value =
  if Float.is_nan value then "-"
  else if Float.is_integer value && Float.abs value < 1e15 then
    Printf.sprintf "%.0f" value
  else Printf.sprintf "%.3f" value

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let arity = List.length t.columns in
  let widths = Array.make arity 0 in
  let record_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record_widths all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let line row = "| " ^ String.concat " | " (List.mapi pad row) ^ " |" in
  let rule =
    "+"
    ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let body = List.map line rows in
  String.concat "\n"
    (("== " ^ t.title ^ " ==") :: rule :: line t.columns :: rule :: (body @ [ rule ]))

let print t =
  print_string (render t);
  print_newline ();
  print_newline ()
