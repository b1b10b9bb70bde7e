type t = {
  datapath : float;
  rollback : float;
  dependency : float;
}

let default = { datapath = 1.0; rollback = 0.35; dependency = 0.5 }

let mode_cost t mode =
  t.datapath
  +. (if Mode.allows_leading mode then t.rollback else 0.0)
  +. if Mode.allows_trailing mode then t.dependency else 0.0

type design = {
  mode : Mode.t;
  cost : float;
  speedup : float;
}

let designs core scenario =
  List.map
    (fun mode ->
      {
        mode;
        cost = mode_cost default mode;
        speedup = Equations.speedup_exn core scenario mode;
      })
    Mode.all

let dominates a b =
  (a.cost <= b.cost && a.speedup > b.speedup)
  || (a.cost < b.cost && a.speedup >= b.speedup)

let pareto_front designs =
  designs
  |> List.filter (fun d -> not (List.exists (fun o -> dominates o d) designs))
  |> List.sort (fun a b -> compare (a.cost, a.speedup) (b.cost, b.speedup))

let dominated all =
  let front = pareto_front all in
  List.filter
    (fun d -> not (List.exists (fun f -> f.mode = d.mode) front))
    all

let cheapest_at_least designs ~speedup =
  designs
  |> List.filter (fun d -> d.speedup >= speedup)
  |> List.sort (fun a b -> compare a.cost b.cost)
  |> function
  | [] -> None
  | d :: _ -> Some d
