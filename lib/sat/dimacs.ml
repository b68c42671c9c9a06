(* [parse] creates every variable up to the largest one named, so a
   few bytes could otherwise ask for billions of them.  2^20 is 22 times
   the 47,861 variables of the largest exact-oracle encoding (dtw at
   II 4 on 6x6). *)
let max_vars = 1 lsl 20

let parse text =
  let s = Solver.create () in
  let nvars = ref 0 in
  let declared = ref None in
  let ensure v =
    while Solver.var_count s < v do ignore (Solver.new_var s) done;
    if v > !nvars then nvars := v
  in
  let error = ref None in
  let pending = ref [] in
  let literal i =
    let v = abs i in
    (* [abs min_int] is negative *)
    if v <= 0 || v > max_vars then
      error := Some (Printf.sprintf "literal %d out of range 1..%d" i max_vars)
    else
      match !declared with
      | Some d when v > d ->
        error :=
          Some (Printf.sprintf "literal %d exceeds the %d variables declared" i d)
      | _ ->
        ensure v;
        pending := (if i > 0 then Solver.pos (v - 1) else Solver.neg (v - 1)) :: !pending
  in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if !error = None then
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then ()
        else if line.[0] = 'p' then begin
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ "p"; "cnf"; v; _c ] -> (
            match int_of_string_opt v with
            | Some v when v > max_vars ->
              error :=
                Some (Printf.sprintf "header declares %d variables, above %d" v max_vars)
            | Some v when v >= !nvars ->
              ensure v;
              declared := Some v
            | Some v when v >= 0 ->
              error :=
                Some (Printf.sprintf "header declares %d variables, clauses use %d" v !nvars)
            | _ -> error := Some (Printf.sprintf "bad header %S" line))
          | _ -> error := Some (Printf.sprintf "bad header %S" line)
        end
        else
          String.split_on_char ' ' line
          |> List.filter (( <> ) "")
          |> List.iter (fun tok ->
                 if !error = None then
                   match int_of_string_opt tok with
                   | None -> error := Some (Printf.sprintf "bad token %S" tok)
                   | Some 0 ->
                     Solver.add_clause s (List.rev !pending);
                     pending := []
                   | Some i -> literal i))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
    if !pending <> [] then Error "unterminated clause"
    else Ok (s, !nvars)
