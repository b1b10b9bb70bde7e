let pad ~left width s =
  let fill = String.make (Stdlib.max 0 (width - String.length s)) ' ' in
  if left then s ^ fill else fill ^ s

let render ~headers rows =
  let arity = List.length headers in
  List.iteri
    (fun i row ->
      if List.length row <> arity then
        invalid_arg
          (Printf.sprintf "Table.render: row %d has %d cells, expected %d" i
             (List.length row) arity))
    rows;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> Stdlib.max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let buf = Buffer.create 1024 in
  let emit_row cells =
    let padded =
      List.mapi
        (fun i (w, c) -> pad ~left:(i = 0) w c)
        (List.combine widths cells)
    in
    Buffer.add_string buf (String.concat "  " padded);
    Buffer.add_char buf '\n'
  in
  emit_row headers;
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print ~headers rows = print_string (render ~headers rows)

let float_cell ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x

let pct_cell ?(decimals = 1) x = Printf.sprintf "%.*f%%" decimals (100.0 *. x)
