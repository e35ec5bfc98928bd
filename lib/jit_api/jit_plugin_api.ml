let table : (string, Obj.t) Hashtbl.t = Hashtbl.create 64

let register key v = Hashtbl.replace table key v

let lookup key = Hashtbl.find_opt table key

let registered_keys () = Hashtbl.fold (fun k _ acc -> k :: acc) table []
