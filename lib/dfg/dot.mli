(** Graphviz export of DFGs, for debugging mappings and documenting
    kernels.  Loop-carried edges are dashed and annotated with their
    distance; critical (RecMII) nodes are highlighted. *)

val to_string : Graph.t -> string
(** Render as a [digraph] named [dfg]. *)

val write_file : path:string -> Graph.t -> unit
(** Write [to_string] output to [path]. *)
