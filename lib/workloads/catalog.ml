module Variant = Varan_nvx.Variant
module Vfs = Varan_kernel.Vfs
module Api = Varan_kernel.Api
module Prng = Varan_util.Prng

let page_4k = String.make 4096 'p'

(* Every workload gets /var for logs; web servers also get the document. *)
let add_var k = Vfs.add_file k "/var/.keep" ""

let add_doc k =
  add_var k;
  Vfs.add_file k "/www/index.html" page_4k

(* --- Beanstalkd ------------------------------------------------------ *)

let beanstalkd =
  let payload = Bytes.make 256 'j' in
  {
    Workload.w_name = "Beanstalkd";
    units = 1;
    unit_kind = Variant.Thread;
    make_body =
      (fun () ->
        Queue_server.make_body
          {
            Queue_server.port = 11300;
            binlog_path = Some "/var/beanstalkd.binlog";
            work_cycles = 1_000;
            expected_conns = 10;
          }
          ());
    profile = { Variant.code_bytes = 20_000; syscall_share = 0.035; code_seed = 11 };
    mem_intensity_c1000 = 30;
    port_base = 11300;
    load =
      {
        Clients.connections = 10;
        requests_per_conn = 150;
        request_of = (fun ~conn:_ ~seq:_ -> Queue_server.put_cmd payload);
        think_cycles = 500;
        warmup_requests = 10;
      };
    setup_fs = add_var;
    rules = None;
  }

(* --- Lighttpd (wrk) --------------------------------------------------- *)

let lighttpd_cfg expected_conns =
  {
    Http_server.port = 8080;
    units = 1;
    style = Http_server.Event_loop;
    doc_path = "/www/index.html";
    parse_cycles = 29_000;
    access_log = Some "/var/lighttpd.access.log";
    expected_conns;
  }

let lighttpd_wrk =
  {
    Workload.w_name = "Lighttpd (wrk)";
    units = 1;
    unit_kind = Variant.Thread;
    make_body = (fun () -> Http_server.make_body (lighttpd_cfg 10) ());
    profile = { Variant.code_bytes = 38_000; syscall_share = 0.008; code_seed = 12 };
    mem_intensity_c1000 = 25;
    port_base = 8080;
    load =
      {
        Clients.connections = 10;
        requests_per_conn = 100;
        request_of = (fun ~conn:_ ~seq:_ -> Http_server.request "/www/index.html");
        think_cycles = 500;
        warmup_requests = 10;
      };
    setup_fs = add_doc;
    rules = None;
  }

(* --- Memcached --------------------------------------------------------- *)

let memcached =
  let value = Bytes.make 1024 'v' in
  {
    Workload.w_name = "Memcached";
    units = 4;
    unit_kind = Variant.Thread;
    make_body =
      (fun () ->
        Cache_server.make_body
          {
            Cache_server.port = 11211;
            units = 4;
            work_cycles = 9_000;
            expected_conns = 16;
          }
          ());
    profile = { Variant.code_bytes = 10_000; syscall_share = 0.01; code_seed = 13 };
    mem_intensity_c1000 = 70;
    port_base = 11211;
    load =
      {
        Clients.connections = 16;
        requests_per_conn = 100;
        request_of =
          (fun ~conn ~seq ->
            let key = Printf.sprintf "key-%d-%d" conn (seq mod 50) in
            if seq mod 10 = 0 then Cache_server.set_cmd key value
            else Cache_server.get_cmd key);
        think_cycles = 500;
        warmup_requests = 10;
      };
    setup_fs = (fun _ -> ());
    rules = None;
  }

(* --- Nginx -------------------------------------------------------------- *)

let nginx =
  let cfg =
    {
      Http_server.port = 8090;
      units = 4;
      style = Http_server.Event_loop;
      doc_path = "/www/index.html";
      parse_cycles = 9_000;
      access_log = Some "/var/nginx.access.log";
      expected_conns = 12;
    }
  in
  {
    Workload.w_name = "Nginx";
    units = 4;
    unit_kind = Variant.Process;
    make_body = (fun () -> Http_server.make_body cfg ());
    profile = { Variant.code_bytes = 100_000; syscall_share = 0.008; code_seed = 14 };
    mem_intensity_c1000 = 120;
    port_base = 8090;
    load =
      {
        Clients.connections = 12;
        requests_per_conn = 80;
        request_of = (fun ~conn:_ ~seq:_ -> Http_server.request "/www/index.html");
        think_cycles = 500;
        warmup_requests = 10;
      };
    setup_fs = add_doc;
    rules = None;
  }

(* --- Redis --------------------------------------------------------------- *)

let redis_value = String.make 64 'r'

let redis_request ~conn ~seq =
  let key = Printf.sprintf "k%d" (seq mod 40) in
  match (seq + conn) mod 10 with
  | 0 | 1 -> Kv_server.cmd (Printf.sprintf "SET %s %s" key redis_value)
  | 2 -> Kv_server.cmd (Printf.sprintf "INCR counter%d" conn)
  | 3 -> Kv_server.cmd "PING"
  | _ -> Kv_server.cmd (Printf.sprintf "GET %s" key)

let redis =
  {
    Workload.w_name = "Redis";
    units = 2;
    unit_kind = Variant.Thread;
    make_body =
      (fun () ->
        Kv_server.make_body
          {
            Kv_server.port = 6379;
            units = 2;
            aof_path = None;
            work_cycles = 28_000;
            expected_conns = 10;
            crash_on_hmget = false;
          }
          ());
    profile = { Variant.code_bytes = 35_000; syscall_share = 0.008; code_seed = 15 };
    mem_intensity_c1000 = 50;
    port_base = 6379;
    load =
      {
        Clients.connections = 10;
        requests_per_conn = 100;
        request_of = redis_request;
        think_cycles = 500;
        warmup_requests = 10;
      };
    setup_fs = (fun _ -> ());
    rules = None;
  }

(* --- Prior-work servers (Table 2 / Figure 6) ------------------------------ *)

let apache_httpd =
  let cfg =
    {
      Http_server.port = 8100;
      units = 4;
      style = Http_server.Prefork;
      doc_path = "/www/index.html";
      parse_cycles = 60_000;
      access_log = Some "/var/apache.access.log";
      expected_conns = 4;
    }
  in
  {
    Workload.w_name = "Apache httpd";
    units = 4;
    unit_kind = Variant.Process;
    make_body = (fun () -> Http_server.make_body cfg ());
    profile = { Variant.code_bytes = 90_000; syscall_share = 0.006; code_seed = 16 };
    mem_intensity_c1000 = 40;
    port_base = 8100;
    load =
      {
        Clients.connections = 4;
        requests_per_conn = 80;
        request_of = (fun ~conn:_ ~seq:_ -> Http_server.request "/www/index.html");
        think_cycles = 120_000;
        warmup_requests = 10;
      };
    setup_fs = add_doc;
    rules = None;
  }

let thttpd =
  let cfg =
    {
      Http_server.port = 8110;
      units = 1;
      style = Http_server.Prefork;
      doc_path = "/www/index.html";
      parse_cycles = 25_000;
      access_log = None;
      expected_conns = 4;
    }
  in
  {
    Workload.w_name = "thttpd";
    units = 1;
    unit_kind = Variant.Thread;
    make_body = (fun () -> Http_server.make_body cfg ());
    profile = { Variant.code_bytes = 8_000; syscall_share = 0.006; code_seed = 17 };
    mem_intensity_c1000 = 30;
    port_base = 8110;
    load =
      {
        Clients.connections = 4;
        requests_per_conn = 80;
        request_of = (fun ~conn:_ ~seq:_ -> Http_server.request "/www/index.html");
        think_cycles = 120_000;
        warmup_requests = 10;
      };
    setup_fs = add_doc;
    rules = None;
  }

let lighttpd_http_load =
  {
    lighttpd_wrk with
    Workload.w_name = "Lighttpd (http_load)";
    (* http_load runs fewer, longer-lived connections at a lower request
       rate; the client-side pacing hides more of the overhead. *)
    load =
      {
        Clients.connections = 6;
        requests_per_conn = 100;
        request_of = (fun ~conn:_ ~seq:_ -> Http_server.request "/www/index.html");
        think_cycles = 220_000;
        warmup_requests = 10;
      };
  }

let lighttpd_ab =
  {
    lighttpd_wrk with
    Workload.w_name = "Lighttpd (ab)";
    load =
      {
        Clients.connections = 4;
        requests_per_conn = 100;
        request_of = (fun ~conn:_ ~seq:_ -> Http_server.request "/www/index.html");
        think_cycles = 160_000;
        warmup_requests = 10;
      };
  }

(* --- Thread-scale grids (scheduler + per-tid lane stress) --------------- *)

(* A server-less workload: [threads] sibling threads hammer a small set
   of contended futex words. The acquisition index {!Api.futex_lock}
   returns is the leader's global lock order — exactly the event stream
   the per-tid lanes must replay in order while everything else runs
   concurrently. No client load; the run is done when every thread has
   finished its rounds. *)
let thread_grid ~name ~threads ~locks ~rounds ~code_seed =
  {
    Workload.w_name = name;
    units = threads;
    unit_kind = Variant.Thread;
    make_body =
      (fun () ~unit_idx api ->
        for r = 0 to rounds - 1 do
          let word = 0x1000 + ((unit_idx + r) mod locks) in
          let _acq = Api.futex_lock api word in
          Api.compute api 200;
          ignore (Api.futex_unlock api word);
          Api.compute api 100
        done);
    profile = { Variant.code_bytes = 6_000; syscall_share = 0.05; code_seed };
    mem_intensity_c1000 = 10;
    port_base = 0;
    load =
      {
        Clients.connections = 0;
        requests_per_conn = 0;
        request_of = (fun ~conn:_ ~seq:_ -> Bytes.empty);
        think_cycles = 0;
        warmup_requests = 0;
      };
    setup_fs = (fun _ -> ());
    rules = None;
  }

let thread_grid_64 =
  thread_grid ~name:"Thread grid (64)" ~threads:64 ~locks:8 ~rounds:24
    ~code_seed:18

let c10k_servers = [ beanstalkd; lighttpd_wrk; memcached; nginx; redis ]

let prior_work_servers = [ apache_httpd; thttpd; lighttpd_ab; lighttpd_http_load ]

let table1 =
  [
    ("Beanstalkd", 6365, "single-threaded");
    ("Lighttpd", 38_590, "single-threaded");
    ("Memcached", 9779, "multi-threaded");
    ("Nginx", 101_852, "multi-process");
    ("Redis", 34_625, "multi-threaded");
  ]
