type t = { run : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

let serial = { run = (fun f xs -> Array.map f xs) }

let map_list p f xs = Array.to_list (p.run f (Array.of_list xs))
