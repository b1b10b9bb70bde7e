type t = {
  values : float array array;
  row_labels : string array;
  col_labels : string array;
  markers : (int * int, char) Hashtbl.t;
}

let make ~values ~row_labels ~col_labels =
  let open Diag.Syntax in
  let* () =
    Diag.same_length ~field:"Heatmap.make.row_labels" values row_labels
  in
  let* _ = Diag.non_empty ~field:"Heatmap.make.values" values in
  (* Zero-column rows would leave render with no x-axis to label. *)
  let* _ = Diag.non_empty ~field:"Heatmap.make.values.(0)" values.(0) in
  let cols = Array.length values.(0) in
  let* () =
    Array.fold_left
      (fun acc row ->
        let* () = acc in
        if Array.length row <> cols then
          Error
            (Diag.Ragged_input
               { field = "Heatmap.make.values"; expected = cols;
                 actual = Array.length row })
        else Ok ())
      (Ok ()) values
  in
  let* () =
    if cols <> Array.length col_labels then
      Error
        (Diag.Ragged_input
           { field = "Heatmap.make.col_labels"; expected = cols;
             actual = Array.length col_labels })
    else Ok ()
  in
  Ok { values; row_labels; col_labels; markers = Hashtbl.create 16 }

(* Thresholds are multiplicative: a 1.5x speedup and a 1/1.5 slowdown get
   symmetric intensity. *)
let cell_char v =
  if v <= 0.0 then '?'
  else
    let lg = log v in
    if Float.abs lg <= log 1.02 then ' '
    else if lg > 0.0 then
      if lg >= log 4.0 then '#'
      else if lg >= log 2.0 then '+'
      else if lg >= log 1.25 then ':'
      else '.'
    else
      let m = -.lg in
      if m >= log 4.0 then '@'
      else if m >= log 2.0 then '%'
      else if m >= log 1.25 then '='
      else '-'

let legend =
  "legend (speedup): '#'>=4x  '+'>=2x  ':'>=1.25x  '.'>1.02x  ' '~1x  \
   slowdown: '-'<1x  '='<=0.8x  '%'<=0.5x  '@'<=0.25x"

let render ?title t =
  let buf = Buffer.create 4096 in
  (match title with
  | Some s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
  | None -> ());
  let label_w =
    Array.fold_left (fun w l -> Stdlib.max w (String.length l)) 0 t.row_labels
  in
  Array.iteri
    (fun r row ->
      Buffer.add_string buf
        (Printf.sprintf "%*s |" label_w t.row_labels.(r));
      Array.iteri
        (fun c v ->
          let ch =
            match Hashtbl.find_opt t.markers (r, c) with
            | Some m -> m
            | None -> cell_char v
          in
          Buffer.add_char buf ch)
        row;
      Buffer.add_char buf '\n')
    t.values;
  let cols = Array.length t.col_labels in
  Buffer.add_string buf (Printf.sprintf "%*s +%s\n" label_w "" (String.make cols '-'));
  (* Print a sparse x-axis: first, middle and last column labels. *)
  let picks = [ (0, t.col_labels.(0)); (cols / 2, t.col_labels.(cols / 2)); (cols - 1, t.col_labels.(cols - 1)) ] in
  let axis = Bytes.make (label_w + 2 + cols + 16) ' ' in
  List.iter
    (fun (c, l) ->
      let start = label_w + 2 + c in
      String.iteri
        (fun i ch ->
          let pos = start + i in
          if pos < Bytes.length axis then Bytes.set axis pos ch)
        l)
    picks;
  Buffer.add_string buf (String.trim (Bytes.to_string axis) |> fun s ->
    Printf.sprintf "%*s  %s\n" label_w "" s);
  Buffer.add_string buf legend;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let overlay t cells c =
  let copy =
    {
      t with
      markers = Hashtbl.copy t.markers;
      values = Array.map Array.copy t.values;
    }
  in
  let rows = Array.length t.values in
  let cols = Array.length t.col_labels in
  List.iter
    (fun (r, col) ->
      if r >= 0 && r < rows && col >= 0 && col < cols then
        Hashtbl.replace copy.markers (r, col) c)
    cells;
  copy
