let of_string s =
  let len = String.length s in
  let rec digits i n =
    if i = len then Some n
    else
      match s.[i] with
      | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if n > (max_int - d) / 10 then None else digits (i + 1) ((n * 10) + d)
      | _ -> None
  in
  if len = 0 || (len > 1 && s.[0] = '0') then None else digits 0 0
