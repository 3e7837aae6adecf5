module E = Varan_sim.Engine

type t = { eng : E.t; name : string }

let create ~eng name = { eng; name }
let name t = t.name
let spawn t ~name f = E.spawn t.eng ~name:(t.name ^ "/" ^ name) f
