open Diag.Syntax

type point = {
  id : string;
  mode : Mode.t;
  measured : float;
  estimated : float;
}

type summary = {
  n : int;
  mean_abs_pct : float;
  median_abs_pct : float;
  max_abs_pct : float;
}

let error p =
  Tca_util.Stats.relative_error ~measured:p.measured ~estimated:p.estimated

let summarize points =
  let* _ =
    Diag.non_empty ~field:"Validate.summarize"
      (Array.of_list points)
  in
  let* errs =
    List.fold_right
      (fun p acc ->
        let* acc = acc in
        let+ e = error p in
        (100.0 *. Float.abs e) :: acc)
      points (Ok [])
  in
  let errs = Array.of_list errs in
  let* mean_abs_pct = Tca_util.Stats.mean errs in
  let* median_abs_pct = Tca_util.Stats.median errs in
  let+ max_abs_pct = Tca_util.Stats.max errs in
  { n = Array.length errs; mean_abs_pct; median_abs_pct; max_abs_pct }

let trends_preserved ?(tolerance = 0.02) points =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups p.id) in
      Hashtbl.replace groups p.id (p :: existing))
    points;
  let pair_ok p q =
    let gap = Float.abs (p.measured -. q.measured) /. q.measured in
    gap <= tolerance
    || compare p.measured q.measured = compare p.estimated q.estimated
  in
  Hashtbl.fold
    (fun _ ps acc ->
      acc
      && List.for_all
           (fun p -> List.for_all (fun q -> pair_ok p q) ps)
           ps)
    groups true
