open Tca_model
module A = Tca_engine.Artifact

let preset_cell (c : Params.core) =
  Printf.sprintf "ipc=%.1f rob=%d issue=%d t_commit=%.0f" c.Params.ipc
    c.Params.rob_size c.Params.issue_width c.Params.commit_stall

let rows () =
  List.map (fun (sym, meaning) -> [ sym; meaning ]) Params.glossary

let artifact () =
  A.make ~job:"table1" ~title:"Table I: analytical model parameters"
    [
      A.Table
        (A.table ~name:"parameters" ~headers:[ "variable"; "name" ]
           (List.map (List.map A.text) (rows ())));
      A.Note "";
      A.Note "Core presets:";
      A.Table
        (A.table ~name:"presets" ~headers:[ "preset"; "parameters" ]
           (List.map
              (fun name ->
                [
                  A.text name;
                  A.text (preset_cell (Option.get (Presets.by_name name)));
                ])
              Presets.names));
    ]
