type layer =
  | Optimization_engine
  | Heuristic_engine
  | Subclass
  | Rule_generator
  | Verify
  | Netstate
  | Scenario
  | Dynamic_handler
  | Resource_orchestrator
  | Controller
  | Dataplane
  | Slice

let layers =
  [
    Optimization_engine; Heuristic_engine; Subclass; Rule_generator; Verify;
    Netstate; Scenario; Dynamic_handler; Resource_orchestrator; Controller;
    Dataplane; Slice;
  ]

let layer_name = function
  | Optimization_engine -> "optimization_engine"
  | Heuristic_engine -> "heuristic_engine"
  | Subclass -> "subclass"
  | Rule_generator -> "rule_generator"
  | Verify -> "verify"
  | Netstate -> "netstate"
  | Scenario -> "scenario"
  | Dynamic_handler -> "dynamic_handler"
  | Resource_orchestrator -> "resource_orchestrator"
  | Controller -> "controller"
  | Dataplane -> "dataplane"
  | Slice -> "slice"

let index = function
  | Optimization_engine -> 0
  | Heuristic_engine -> 1
  | Subclass -> 2
  | Rule_generator -> 3
  | Verify -> 4
  | Netstate -> 5
  | Scenario -> 6
  | Dynamic_handler -> 7
  | Resource_orchestrator -> 8
  | Controller -> 9
  | Dataplane -> 10
  | Slice -> 11

type t = {
  traced : bool;
  busy : float array;
  sums : (string, float) Hashtbl.t;
  series : (string, float list) Hashtbl.t;
  pairs : (string, (float * float) list) Hashtbl.t;
}

let create ~traced =
  {
    traced;
    busy = Array.make (List.length layers) 0.0;
    sums = Hashtbl.create 16;
    series = Hashtbl.create 16;
    pairs = Hashtbl.create 4;
  }

let traced t = t.traced

let call t layer f =
  if not t.traced then f ()
  else
    let r, dt = Measure.time f in
    let i = index layer in
    t.busy.(i) <- t.busy.(i) +. dt;
    r

let busy t layer = t.busy.(index layer)
let busy_total t = Array.fold_left ( +. ) 0.0 t.busy

let find tbl key ~default = Option.value ~default (Hashtbl.find_opt tbl key)
let push tbl key v = Hashtbl.replace tbl key (v :: find tbl key ~default:[])

let add t key v =
  if t.traced then
    Hashtbl.replace t.sums key (v +. find t.sums key ~default:0.0)

let sample t key v = if t.traced then push t.series key v
let point t key ~x ~y = if t.traced then push t.pairs key (x, y)
let sum t key = find t.sums key ~default:0.0
let samples t key = Array.of_list (List.rev (find t.series key ~default:[]))
let points t key = List.rev (find t.pairs key ~default:[])
