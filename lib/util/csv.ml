let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  else s

let line fields = String.concat "," (List.map escape fields)

let to_string ~header rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (line header);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
