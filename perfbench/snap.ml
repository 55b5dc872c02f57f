(* A parsed snapshot of a server's metric registry, and deltas between two
   snapshots (the timed phase is bracketed by a scrape on each side). *)

type hist = { count : float; sum : float; p50 : float }
type t = { scalars : (string, float) Hashtbl.t; hists : (string, hist) Hashtbl.t }

let key name labels =
  match labels with
  | [] -> name
  | l ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
      ^ "}"

let labels_of j =
  match Json.member "labels" j with
  | Some (Json.Obj l) ->
      List.sort compare
        (List.map (fun (k, v) -> (k, match v with Json.Str s -> s | _ -> "")) l)
  | _ -> []

let of_json s =
  let j = Json.parse s in
  let scalars = Hashtbl.create 64 and hists = Hashtbl.create 16 in
  let name j = match Json.member "name" j with Some (Json.Str s) -> s | _ -> "" in
  let num k j = match Json.member k j with Some v -> Json.to_num v | None -> 0.0 in
  List.iter
    (fun section ->
      List.iter
        (fun m -> Hashtbl.replace scalars (key (name m) (labels_of m)) (num "value" m))
        (Option.fold ~none:[] ~some:Json.to_list (Json.member section j)))
    [ "counters"; "gauges" ];
  List.iter
    (fun m ->
      Hashtbl.replace hists
        (key (name m) (labels_of m))
        { count = num "count" m; sum = num "sum" m; p50 = num "p50" m })
    (Option.fold ~none:[] ~some:Json.to_list (Json.member "histograms" j));
  { scalars; hists }

let fetch conn =
  of_json (Fastver_net.Client.metrics conn ~format:Fastver_net.Wire.Json)

let scalar ?(labels = []) t name =
  Option.value (Hashtbl.find_opt t.scalars (key name labels)) ~default:0.0

let hist t name =
  Option.value (Hashtbl.find_opt t.hists name)
    ~default:{ count = 0.0; sum = 0.0; p50 = 0.0 }

(* Counter growth between two scrapes. *)
let delta ?labels a b name = scalar ?labels b name -. scalar ?labels a name

(* Mean of the histogram samples recorded between two scrapes. *)
let delta_mean a b name =
  let x = hist a name and y = hist b name in
  let c = y.count -. x.count in
  if c <= 0.0 then 0.0 else (y.sum -. x.sum) /. c


let ratio x y = if y <= 0.0 then 0.0 else x /. y
