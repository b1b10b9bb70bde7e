type t = { tbl : (string, Job.t) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let register t (job : Job.t) =
  if Hashtbl.mem t.tbl job.Job.name then
    Error
      (Tca_util.Diag.Invalid
         {
           field = "Registry.register";
           message = Printf.sprintf "job %S is already registered" job.Job.name;
         })
  else begin
    Hashtbl.replace t.tbl job.Job.name job;
    Ok ()
  end

let find t name = Hashtbl.find_opt t.tbl name

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl []
  |> List.sort String.compare

let all t = List.filter_map (find t) (names t)
let length t = Hashtbl.length t.tbl

let resolve t requested =
  List.fold_right
    (fun name acc ->
      Result.bind acc (fun acc ->
          match find t name with
          | Some job -> Ok (job :: acc)
          | None ->
              Error
                (Tca_util.Diag.Invalid
                   {
                     field = "Registry.resolve";
                     message =
                       Printf.sprintf "unknown job %S (available: %s)" name
                         (String.concat ", " (names t));
                   })))
    requested (Ok [])
