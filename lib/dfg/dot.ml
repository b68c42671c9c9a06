let to_string g =
  let buf = Buffer.create 1024 in
  let critical = Analysis.critical_nodes g in
  Buffer.add_string buf "digraph dfg {\n";
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun (n : Graph.node) ->
      let color = if List.mem n.id critical then ", style=filled, fillcolor=palegreen" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\n%s\"%s];\n" n.id n.label (Op.to_string n.op) color))
    (Graph.nodes g);
  List.iter
    (fun (e : Graph.edge) ->
      if e.distance = 0 then
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" e.src e.dst)
      else
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [style=dashed, label=\"d=%d\"];\n" e.src e.dst
             e.distance))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ~path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))
