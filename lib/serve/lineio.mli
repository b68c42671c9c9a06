(** EINTR-robust line IO over raw file descriptors — the daemon's
    transport primitive.

    Buffered channels turn a signal-interrupted [read(2)] into a fatal
    [Sys_error]; these wrappers instead retry [EINTR] (after
    re-checking an optional [stop] predicate, so the drain handlers'
    no-SA_RESTART signals can break a blocked reader out of its wait)
    and degrade peer-disconnect errors ([ECONNRESET]/[EPIPE]) into
    end-of-stream instead of exceptions. *)

type reader

val reader : Unix.file_descr -> reader

val max_line : int
(** The longest line {!read_line} returns, in bytes before the
    terminator: 1 MiB, far above any frame the protocol needs. *)

val read_line :
  ?stop:(unit -> bool) -> reader -> [ `Line of string | `Too_long | `Eof | `Stopped ]
(** Next newline-terminated line (terminator removed, a trailing [\r]
    tolerated), in time linear in its length.  [`Too_long] once a line
    passes {!max_line}: the line is never held whole, and the bytes up
    to its newline are read and dropped, so the next call returns the
    line after it.  [`Eof] on end-of-stream or peer reset — an
    unterminated final partial line is a torn frame and is discarded,
    never returned.  [`Stopped] as soon as [stop ()] holds (checked
    before every blocking read; combine with a signal handler to
    interrupt the wait). *)

type writer

val writer : Unix.file_descr -> writer

val write_line : writer -> string -> bool
(** Write [line ^ "\n"], retrying partial writes and [EINTR].  [false]
    when the peer is gone ([EPIPE]/[ECONNRESET]); the writer is then
    {e broken} and every later write is a silent no-op — the server
    keeps draining work for a vanished client without dying on
    SIGPIPE-adjacent errors. *)
