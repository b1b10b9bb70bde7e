let num_classes = 4
let granule = 32
let max_small_size = num_classes * granule

let of_size bytes =
  if bytes <= 0 then invalid_arg "Size_class.of_size: non-positive size";
  if bytes > max_small_size then None else Some ((bytes - 1) / granule)

let check_class c =
  if c < 0 || c >= num_classes then
    invalid_arg "Size_class: class index out of range"

let class_bytes c =
  check_class c;
  (c + 1) * granule

