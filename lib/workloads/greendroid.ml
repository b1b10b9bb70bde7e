type fn = { name : string; static_instrs : int }

let functions =
  [
    { name = "dalvik_interp_dispatch"; static_instrs = 140 };
    { name = "skia_blit_row"; static_instrs = 260 };
    { name = "jpeg_idct_block"; static_instrs = 480 };
    { name = "png_inflate_window"; static_instrs = 350 };
    { name = "text_layout_run"; static_instrs = 520 };
    { name = "gc_mark_object"; static_instrs = 180 };
    { name = "regex_match_inner"; static_instrs = 640 };
    { name = "audio_mix_frame"; static_instrs = 300 };
    { name = "xml_parse_token"; static_instrs = 760 };
  ]

let accel_factor = 1.5

let granularities () =
  Array.of_list (List.map (fun f -> float_of_int f.static_instrs) functions)

let mean_granularity () =
  Tca_util.Diag.ok_exn (Tca_util.Stats.mean (granularities ()))

let heap_manager_granularity =
  float_of_int (Tca_heap.Cost_model.malloc_uops + Tca_heap.Cost_model.free_uops)
  /. 2.0
