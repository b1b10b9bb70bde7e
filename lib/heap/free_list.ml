type t = { mutable items : int list }

let create () = { items = [] }
let push t addr = t.items <- addr :: t.items

let pop t =
  match t.items with
  | [] -> None
  | x :: rest ->
      t.items <- rest;
      Some x

let is_empty t = t.items = []
let to_list t = t.items
