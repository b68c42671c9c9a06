(** ASCII table rendering for the benchmark harness.

    The harness prints each paper table/figure as an aligned text table;
    this module owns the layout so every experiment renders uniformly. *)

type t

val create : title:string -> columns:string list -> t
(** [create ~title ~columns] starts an empty table with the given
    header row. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity differs from
    the header. *)

val render : t -> string
(** Render with box-drawing rules and a title line. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val fmt_float : float -> string
(** Shared float formatting (3 decimals, [nan] printed as "-"). *)
