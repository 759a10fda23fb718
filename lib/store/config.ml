type admission = { queue_cap : int; shed_policy : Lion_sim.Server.shed_policy }
type retry_budget = { rate : float; burst : float }
type breaker = { threshold : int; cooldown : float }
type deadline = { after : float; enforce : bool }
type geo = { regions : int; wan_latency : float; wan_per_byte : float; min_regions : int }
type elastic = { standby_nodes : int; rebalance_rate : float }

type t = {
  nodes : int;
  partitions_per_node : int;
  workers_per_node : int;
  replicas : int;
  max_replicas : int;
  txn_setup_cost : float;
  local_op_cost : float;
  msg_handle_cost : float;
  net_latency : float;
  net_per_byte : float;
  op_msg_bytes : int;
  record_bytes : int;
  remaster_delay : float;
  remaster_cooldown : float;
  partition_bytes : int;
  migration_cpu_cost : float;
  replica_add_duration : float;
  election_delay : float;
  group_commit_interval : float;
  batch_size : int;
  rpc_timeout : float;
  rpc_retries : int;
  rpc_backoff : float;
  fault_plan : Lion_sim.Fault.plan;
  admission : admission option;
  control_priority : bool;
  retry_budget : retry_budget option;
  breaker : breaker option;
  deadline : deadline option;
  geo : geo option;
  elastic : elastic option;
  session_tagging : bool;
}

let default =
  {
    nodes = 4;
    partitions_per_node = 12;
    workers_per_node = 8;
    replicas = 2;
    max_replicas = 4;
    txn_setup_cost = 50.0;
    local_op_cost = 15.0;
    msg_handle_cost = 4.0;
    net_latency = 60.0;
    net_per_byte = 0.0085;
    op_msg_bytes = 128;
    record_bytes = 64;
    remaster_delay = 300.0;
    remaster_cooldown = 10_000.0;
    partition_bytes = 1_000_000;
    migration_cpu_cost = 20_000.0;
    replica_add_duration = 200_000.0;
    election_delay = 10_000.0;
    group_commit_interval = 10_000.0;
    batch_size = 10_000;
    rpc_timeout = 5_000.0;
    rpc_retries = 3;
    rpc_backoff = 200.0;
    fault_plan = Lion_sim.Fault.none;
    admission = None;
    control_priority = false;
    retry_budget = None;
    breaker = None;
    deadline = None;
    geo = None;
    elastic = None;
    session_tagging = false;
  }

(* Starting points for each optional subsystem; the experiments sweep
   around them. *)
let default_admission = { queue_cap = 64; shed_policy = Lion_sim.Server.Reject_newest }
let default_retry_budget = { rate = 2_000.0; burst = 64.0 }
let default_breaker = { threshold = 8; cooldown = 50_000.0 }
let default_deadline = { after = 200_000.0; enforce = true }
let default_geo = { regions = 2; wan_latency = 50_000.0; wan_per_byte = 0.05; min_regions = 2 }
let default_elastic = { standby_nodes = 2; rebalance_rate = 50.0 }

let with_overload_defaults t =
  {
    t with
    admission = Some default_admission;
    control_priority = true;
    retry_budget = Some default_retry_budget;
    breaker = Some default_breaker;
    deadline = Some default_deadline;
  }

let with_elastic_defaults t =
  { t with elastic = Some default_elastic; session_tagging = true }

let misses_deadline t latency =
  match t.deadline with Some d -> latency > d.after | None -> false

let total_partitions t = t.nodes * t.partitions_per_node
let total_workers t = t.nodes * t.workers_per_node
let total_slots t =
  match t.elastic with Some e -> t.nodes + e.standby_nodes | None -> t.nodes
let with_nodes t nodes = { t with nodes }

(* Contiguous block layout: a region is a datacenter of consecutive
   node ids (nodes 0..k-1 = region 0, ...). Deliberately NOT
   round-robin — the seed placement puts partition [p]'s secondaries on
   the nodes right after its primary, so a round-robin map would make
   every partition span regions for free and [min_regions] would never
   bite. *)
let region_of_node t n =
  match t.geo with
  | None -> 0
  | Some g -> min (g.regions - 1) (n * g.regions / total_slots t)
