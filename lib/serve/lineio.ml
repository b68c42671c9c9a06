(* EINTR-robust line IO over raw file descriptors.

   The daemon's transports cannot use [in_channel]/[out_channel]
   directly: a signal landing mid-[read] with a no-SA_RESTART handler
   (the daemon's SIGTERM/SIGINT drain handlers are exactly that) turns
   into [Unix_error (EINTR, _, _)], which buffered channels surface as
   a fatal [Sys_error].  Here every syscall is wrapped in a retry loop
   that re-checks a [stop] predicate first, so a signal interrupts the
   wait without killing the process. *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pending : Buffer.t;  (* bytes read but not yet returned *)
  mutable at_eof : bool;
}

let reader fd = { fd; buf = Bytes.create 8192; pending = Buffer.create 256; at_eof = false }

let never_stop () = false

(* index of '\n' in [pending], if any *)
let newline_index b =
  let s = Buffer.contents b in
  String.index_opt s '\n' |> Option.map (fun i -> (s, i))

let take_line r s i =
  let line = String.sub s 0 i in
  let rest = String.sub s (i + 1) (String.length s - i - 1) in
  Buffer.clear r.pending;
  Buffer.add_string r.pending rest;
  (* a protocol line never contains '\r'; tolerate CRLF clients *)
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  `Line line

let read_line ?(stop = never_stop) r =
  let rec refill () =
    if stop () then `Stopped
    else
      match newline_index r.pending with
      | Some (s, i) -> take_line r s i
      | None ->
        if r.at_eof then `Eof
        else begin
          match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
          | 0 ->
            r.at_eof <- true;
            (* a partial unterminated line at EOF is a torn frame:
               discard it rather than decode half a request *)
            `Eof
          | n ->
            Buffer.add_subbytes r.pending r.buf 0 n;
            refill ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            r.at_eof <- true;
            `Eof
        end
  in
  refill ()

type writer = { wfd : Unix.file_descr; mutable broken : bool }

let writer fd = { wfd = fd; broken = false }

let write_line w line =
  if w.broken then false
  else begin
    let data = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length data in
    let rec push off =
      if off >= len then true
      else
        match Unix.write w.wfd data off (len - off) with
        | n -> push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          (* client went away: remember, and let the caller keep
             serving (replies to a dead client are just dropped) *)
          w.broken <- true;
          false
    in
    push 0
  end
