(* ------------------------------------------------------------------ *)
(* encoding                                                            *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let quote s =
  let b = Buffer.create (String.length s + 2) in
  add_quoted b s;
  Buffer.contents b

(* [%.17g] round-trips every finite double through [float_of_string],
   so a value read back from a stored document re-renders to the same
   bytes.  Integral values below 1e15 (every int field) print with
   [string_of_int]: the same bytes as [%.17g] at a fraction of the
   cost.  Negative zero is integral but needs its sign, so it takes
   the [%.17g] path. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 && not (f = 0.0 && Float.sign_bit f) then
    string_of_int (int_of_float f)
  else
    match Float.classify_float f with
    | Float.FP_infinite -> if f > 0.0 then "\"inf\"" else "\"-inf\""
    | Float.FP_nan -> "\"nan\""
    | _ -> Printf.sprintf "%.17g" f

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let int i = Num (float_of_int i)

let to_string v =
  let b = Buffer.create 256 in
  let rec add = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (number f)
    | Str s -> add_quoted b s
    | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add v)
        vs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_quoted b k;
          Buffer.add_char b ':';
          add v)
        kvs;
      Buffer.add_char b '}'
  in
  add v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* decoding                                                            *)

type error = { at : int; reason : string }

let error_to_string e = Printf.sprintf "%s at byte %d" e.reason e.at

exception Fail of error

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse (s : string) : (value, error) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail reason = raise (Fail { at = !pos; reason }) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_lit lit v =
    let len = String.length lit in
    if !pos + len <= n && String.sub s !pos len = lit then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex_digit = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> fail "non-hex digit in \\u escape"
  in
  (* the four hex digits after a [\u]; leaves [pos] past them *)
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for _ = 1 to 4 do
      code := (!code lsl 4) lor hex_digit s.[!pos];
      advance ()
    done;
    !code
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents b
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' ->
          advance ();
          let code = parse_hex4 () in
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* high surrogate: a low surrogate must follow *)
            if
              not
                (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
            then fail "lone high surrogate";
            pos := !pos + 2;
            let low = parse_hex4 () in
            if low < 0xDC00 || low > 0xDFFF then fail "invalid low surrogate";
            add_utf8 b
              (0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00)))
          end
          else if code >= 0xDC00 && code <= 0xDFFF then fail "lone low surrogate"
          else add_utf8 b code
        | Some '"' -> advance (); Buffer.add_char b '"'
        | Some '\\' -> advance (); Buffer.add_char b '\\'
        | Some '/' -> advance (); Buffer.add_char b '/'
        | Some 'b' -> advance (); Buffer.add_char b '\b'
        | Some 'f' -> advance (); Buffer.add_char b '\012'
        | Some 'n' -> advance (); Buffer.add_char b '\n'
        | Some 'r' -> advance (); Buffer.add_char b '\r'
        | Some 't' -> advance (); Buffer.add_char b '\t'
        | _ -> fail "invalid escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let str = String.sub s start (!pos - start) in
    match float_of_string_opt str with
    | Some f -> Num f
    | None -> fail ("malformed number " ^ str)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_lit "true" (Bool true)
    | Some 'f' -> parse_lit "false" (Bool false)
    | Some 'n' -> parse_lit "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "unexpected character"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else
      let rec members acc =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((key, v) :: acc)
        | Some '}' ->
          advance ();
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected ',' or '}' in object"
      in
      members []
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else
      let rec elems acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elems (v :: acc)
        | Some ']' ->
          advance ();
          Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' in array"
      in
      elems []
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail e -> Error e

let member key = function Obj l -> List.assoc_opt key l | _ -> None
let get_string = function Str s -> Some s | _ -> None
let get_number = function Num f -> Some f | _ -> None

let get_int = function
  | Num f
    when Float.is_integer f
         && f >= Int.to_float min_int
         && f <= Int.to_float max_int -> Some (int_of_float f)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_list = function Arr l -> Some l | _ -> None
let get_obj = function Obj l -> Some l | _ -> None
