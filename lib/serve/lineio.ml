(* EINTR-robust line IO over raw file descriptors.

   The daemon's transports cannot use [in_channel]/[out_channel]
   directly: a signal landing mid-[read] with a no-SA_RESTART handler
   (the daemon's SIGTERM/SIGINT drain handlers are exactly that) turns
   into [Unix_error (EINTR, _, _)], which buffered channels surface as
   a fatal [Sys_error].  Here every syscall is wrapped in a retry loop
   that re-checks a [stop] predicate first, so a signal interrupts the
   wait without killing the process. *)

let max_line = 1 lsl 20

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;  (* the last [read]; bytes [pos, len) not yet consumed *)
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;  (* the current line's bytes from earlier chunks *)
  mutable skipping : bool;  (* discarding an over-long line up to its newline *)
  mutable at_eof : bool;
}

let reader fd =
  { fd; chunk = Bytes.create 8192; pos = 0; len = 0; line = Buffer.create 256;
    skipping = false; at_eof = false }

let never_stop () = false

let rec newline r i =
  if i >= r.len then None else if Bytes.get r.chunk i = '\n' then Some i else newline r (i + 1)

(* the line ending at [chunk.[stop]]: [line] plus [chunk[start, stop)] *)
let take r start stop =
  Buffer.add_subbytes r.line r.chunk start (stop - start);
  let n = Buffer.length r.line in
  if n > max_line then begin
    Buffer.reset r.line;
    `Too_long
  end
  else begin
    (* a protocol line never contains '\r'; tolerate CRLF clients *)
    let n = if n > 0 && Buffer.nth r.line (n - 1) = '\r' then n - 1 else n in
    let line = Buffer.sub r.line 0 n in
    Buffer.clear r.line;
    `Line line
  end

(* Each byte is scanned once and copied at most twice, so a line costs
   time linear in its length; past [max_line] it is dropped, not kept. *)
let read_line ?(stop = never_stop) r =
  let rec next () =
    if stop () then `Stopped
    else
      match newline r r.pos with
      | Some i ->
        let start = r.pos in
        r.pos <- i + 1;
        if r.skipping then begin
          r.skipping <- false;
          next ()
        end
        else take r start i
      | None when r.skipping || Buffer.length r.line + (r.len - r.pos) <= max_line ->
        if not r.skipping then Buffer.add_subbytes r.line r.chunk r.pos (r.len - r.pos);
        r.pos <- r.len;
        if r.at_eof then `Eof
        else begin
          match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
          | 0 ->
            r.at_eof <- true;
            (* a partial unterminated line at EOF is a torn frame:
               discard it rather than decode half a request *)
            `Eof
          | n ->
            r.pos <- 0;
            r.len <- n;
            next ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            r.at_eof <- true;
            `Eof
        end
      | None ->
        (* over the cap with no newline yet: answer now, and read the
           rest of the line only to drop it *)
        Buffer.reset r.line;
        r.pos <- r.len;
        r.skipping <- true;
        `Too_long
  in
  next ()

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
