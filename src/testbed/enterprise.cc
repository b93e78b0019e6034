#include "testbed/enterprise.h"

#include <cassert>

namespace dfi {
namespace {

constexpr std::uint64_t kCoreDpid = 1;
constexpr std::uint64_t kFirstEnclaveDpid = 2;
// Enclave layout: dpids 2..10 -> dept-1..dept-9 (9 hosts), dpid 11 ->
// dept-10 (5 hosts), dpids 12..14 -> server enclaves (2 servers each).
constexpr int kDeptEnclaves = 10;
constexpr int kServerEnclaves = 3;

struct ServerSpec {
  const char* name;
  int enclave;  // 0..2 -> dpid 12..14
};

constexpr ServerSpec kServers[] = {
    {"srv-ad", 0},    {"srv-email", 0}, {"srv-web", 1},
    {"srv-file", 1},  {"srv-db", 2},    {"srv-backup", 2},
};

}  // namespace

EnterpriseTestbed::EnterpriseTestbed(EnterpriseConfig config)
    : config_(config), rng_(config.seed) {
  const ClockFn clock = sim_.clock();
  siem_ = std::make_unique<SiemService>(bus_, clock);
  dhcp_ = std::make_unique<DhcpServer>(bus_, clock, Ipv4Address(10, 0, 0, 10), 4096);
  dns_ = std::make_unique<DnsServer>(bus_, clock);

  // DFI must exist before DHCP/DNS provisioning so its sensors observe the
  // binding events.
  if (config_.condition != PolicyCondition::kBaseline) {
    DfiConfig dfi_config = config_.dfi;
    dfi_config.seed ^= config_.seed;
    dfi_ = std::make_unique<DfiSystem>(sim_, bus_, dfi_config);
  }
  controller_ = std::make_unique<LearningController>(sim_, config_.controller,
                                                     Rng(config_.seed ^ 0xc0117011ull));
  network_ = std::make_unique<Network>(sim_, config_.network);

  build_topology();
  provision_endpoints();
  attach_control_plane();

  // Policy activation happens after the control plane settles so flush
  // directives reach registered switches.
  if (config_.condition == PolicyCondition::kSRbac) {
    srbac_ = std::make_unique<SRbacPdp>(PdpPriority{100}, dfi_->policy_manager(),
                                        directory_);
    srbac_->activate();
  } else if (config_.condition == PolicyCondition::kAtRbac) {
    atrbac_ = std::make_unique<AtRbacPdp>(PdpPriority{100}, dfi_->policy_manager(),
                                          directory_, bus_,
                                          std::vector<Hostname>{Hostname{"srv-ad"}});
    atrbac_->activate();
  }
}

void EnterpriseTestbed::build_topology() {
  network_->add_switch(Dpid{kCoreDpid});
  const int total_enclaves = kDeptEnclaves + kServerEnclaves;
  for (int enclave = 0; enclave < total_enclaves; ++enclave) {
    const Dpid dpid{kFirstEnclaveDpid + static_cast<std::uint64_t>(enclave)};
    network_->add_switch(dpid);
    // Core port (enclave+1) <-> enclave switch port 1 (trunk).
    network_->link_switches(Dpid{kCoreDpid}, PortNo{static_cast<std::uint32_t>(enclave + 1)},
                            dpid, PortNo{1});
  }
}

void EnterpriseTestbed::provision_endpoints() {
  std::uint64_t next_mac = 0x020000000001ull;

  const auto provision = [&](const Hostname& name, const std::string& enclave,
                             bool is_server, Dpid dpid, PortNo port) {
    const MacAddress mac = MacAddress::from_u64(next_mac++);
    Host& host = network_->add_host(name, mac, dpid, port);

    // DHCP lease + dynamic DNS registration: these emit the authoritative
    // binding events the ERM sensors consume (paper Figure 3).
    const auto leased = dhcp_->lease(mac);
    assert(leased.ok());
    host.set_ip(leased.value());
    dns_->register_record(name, leased.value());
    (*network_->arp())[leased.value()] = mac;

    host.open_port(config_.service_port);

    const Status added = directory_.add_host(HostRecord{name, enclave, is_server});
    assert(added.ok());
    (void)added;
    endpoints_.push_back(name);
    if (is_server) servers_.push_back(name);
  };

  // Department enclaves: dept-1..dept-9 with 9 hosts, dept-10 with 5.
  for (int dept = 1; dept <= kDeptEnclaves; ++dept) {
    const std::string enclave = "dept-" + std::to_string(dept);
    const Dpid dpid{kFirstEnclaveDpid + static_cast<std::uint64_t>(dept - 1)};
    const int host_count = dept <= 9 ? 9 : 5;
    for (int index = 1; index <= host_count; ++index) {
      const Hostname name{"host-d" + std::to_string(dept) + "-" + std::to_string(index)};
      provision(name, enclave, /*is_server=*/false,
                dpid, PortNo{static_cast<std::uint32_t>(index + 1)});

      // Primary user; department peers get Local Administrator via the
      // directory's enclave rule.
      const Username user{"user-d" + std::to_string(dept) + "-" + std::to_string(index)};
      const Status added = directory_.add_user(UserRecord{user, enclave, name});
      assert(added.ok());
      (void)added;
      primary_users_[name] = user;
      // The primary user has logged onto their machine before: their
      // credential is cached (the worm's credential-theft vector).
      directory_.record_logon(user, name);

      // One vulnerable (unpatched) host per department enclave.
      if (index == 1) vulnerable_.insert(name);
    }
  }

  // Server enclaves.
  int server_port_index = 0;
  int last_enclave = -1;
  for (const ServerSpec& spec : kServers) {
    const std::string enclave = "servers-" + std::to_string(spec.enclave + 1);
    const Dpid dpid{kFirstEnclaveDpid + static_cast<std::uint64_t>(kDeptEnclaves + spec.enclave)};
    if (spec.enclave != last_enclave) {
      server_port_index = 0;
      last_enclave = spec.enclave;
    }
    ++server_port_index;
    provision(Hostname{spec.name}, enclave, /*is_server=*/true, dpid,
              PortNo{static_cast<std::uint32_t>(server_port_index + 1)});
    // All servers are vulnerable (their transmission vector — Section V-B).
    vulnerable_.insert(Hostname{spec.name});
    // The AD server answers the authentication services (DNS, DHCP,
    // Kerberos, LDAP) that AT-RBAC's standing rules are scoped to.
    if (std::string(spec.name) == "srv-ad") {
      Host* ad = network_->find_host(Hostname{spec.name});
      for (const std::uint16_t port : {53, 67, 88, 389}) ad->open_port(port);
    }
  }
}

void EnterpriseTestbed::attach_control_plane() {
  if (dfi_ != nullptr) {
    network_->attach_dfi_control(*dfi_, *controller_);
  } else {
    network_->attach_direct_control(*controller_);
  }
  network_->settle();
}

std::optional<Username> EnterpriseTestbed::primary_user(const Hostname& host) const {
  const auto it = primary_users_.find(host);
  if (it == primary_users_.end()) return std::nullopt;
  return it->second;
}

void EnterpriseTestbed::schedule_all_activity() {
  for (const auto& [host, user] : primary_users_) {
    Rng script_rng = rng_.fork();
    ActivityScript script = generate_activity_script(script_rng);
    scripts_[user] = script;
    schedule_script(sim_, *siem_, directory_, user, host, script);
  }
}

}  // namespace dfi
