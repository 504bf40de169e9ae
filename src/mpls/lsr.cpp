#include "mpls/lsr.hpp"

#include <sstream>

#include "util/error.hpp"

namespace rbpc::mpls {

std::string IlmEntry::to_string() const {
  std::ostringstream os;
  os << "pop";
  if (!push.empty()) {
    os << ", push";
    for (auto it = push.rbegin(); it != push.rend(); ++it) os << ' ' << *it;
  }
  if (out_interface == kLocalInterface) {
    os << ", local";
  } else {
    os << ", out if#" << out_interface;
  }
  return os.str();
}

Label Lsr::allocate_label() {
  require(next_label_ != kInvalidLabel, "Lsr::allocate_label: label space full");
  return next_label_++;
}

void Lsr::set_ilm(Label label, IlmEntry entry) {
  require(label != kInvalidLabel, "Lsr::set_ilm: invalid label");
  ilm_[label] = std::move(entry);
}

const IlmEntry* Lsr::ilm(Label label) const {
  auto it = ilm_.find(label);
  return it == ilm_.end() ? nullptr : &it->second;
}

void Lsr::set_fec(graph::NodeId dest, FecEntry entry) {
  fec_[dest] = std::move(entry);
}

void Lsr::clear_fec(graph::NodeId dest) { fec_.erase(dest); }

const FecEntry* Lsr::fec(graph::NodeId dest) const {
  auto it = fec_.find(dest);
  return it == fec_.end() ? nullptr : &it->second;
}

}  // namespace rbpc::mpls
