module E = Varan_sim.Engine

type t = {
  eng : E.t;
  name : string;
  mutable tasks : int;
  mutable bytes_tx : int;
  mutable bytes_rx : int;
}

let create ~eng name = { eng; name; tasks = 0; bytes_tx = 0; bytes_rx = 0 }
let name t = t.name
let engine t = t.eng

let spawn t ~name f =
  t.tasks <- t.tasks + 1;
  E.spawn t.eng ~name:(t.name ^ "/" ^ name) f

let note_tx t n = t.bytes_tx <- t.bytes_tx + n
let note_rx t n = t.bytes_rx <- t.bytes_rx + n

type stats = { tasks : int; bytes_tx : int; bytes_rx : int }

let stats (t : t) =
  { tasks = t.tasks; bytes_tx = t.bytes_tx; bytes_rx = t.bytes_rx }
