#include "noc/router.hpp"

#include "common/check.hpp"

namespace ioguard::noc {

void Link::put(Flit flit, Cycle now) {
  IOGUARD_CHECK_MSG(!flit_.has_value(), "link already carries a flit");
  flit_ = flit;
  flit_arrival_ = now + 1;
  if (wake_ != nullptr) *wake_ = 1;
}

std::optional<Flit> Link::take(Cycle now) {
  if (!flit_ || flit_arrival_ > now) return std::nullopt;
  std::optional<Flit> out;
  out.swap(flit_);
  return out;
}

void Link::roll_credits(Cycle now) {
  if (now > credit_epoch_) {
    credits_now_ += credits_next_;
    credits_next_ = 0;
    credit_epoch_ = now;
  }
}

void Link::put_credit(Cycle now) {
  roll_credits(now);
  ++credits_next_;
}

std::uint32_t Link::take_credits(Cycle now) {
  roll_credits(now);
  const std::uint32_t c = credits_now_;
  credits_now_ = 0;
  return c;
}

Port route_xy(XY here, XY dst) {
  if (dst.x > here.x) return Port::kEast;
  if (dst.x < here.x) return Port::kWest;
  if (dst.y > here.y) return Port::kSouth;
  if (dst.y < here.y) return Port::kNorth;
  return Port::kLocal;
}

Router::Router(XY position, const RouterConfig& config,
               std::function<XY(NodeId)> node_to_xy)
    : pos_(position), node_to_xy_(std::move(node_to_xy)) {
  inputs_.reserve(kPortCount);
  for (std::size_t i = 0; i < kPortCount; ++i)
    inputs_.emplace_back(config.fifo_depth);
}

void Router::connect_in(Port port, Link* link) {
  IOGUARD_CHECK(link != nullptr);
  inputs_[static_cast<std::size_t>(port)].link = link;
}

void Router::connect_out(Port port, Link* link,
                         std::uint32_t downstream_capacity) {
  IOGUARD_CHECK(link != nullptr);
  auto& out = outputs_[static_cast<std::size_t>(port)];
  out.link = link;
  out.credits = downstream_capacity;
}

Port Router::output_for(const Flit& flit) const {
  return route_xy(pos_, node_to_xy_(flit.dst));
}

void Router::drop_flit(Input& in, const Flit& flit, Cycle now) {
  // The flit still consumed a wire cycle and an (implicit) buffer slot;
  // return the credit so the upstream router never wedges on the loss.
  in.link->put_credit(now);
  if (flit.tail) in.dropping = false;
}

void Router::tick(Cycle now) {
  // 1. Drain inbound links into input FIFOs (flits put at t-1 arrive now).
  //    Fault surface: a fired kLinkFlitLoss eats the arriving packet whole,
  //    head flit through tail flit, bypassing the FIFO.
  for (auto& in : inputs_) {
    if (!in.link) continue;
    if (in.dropping) {
      if (auto flit = in.link->take(now)) drop_flit(in, *flit, now);
      continue;
    }
    if (!in.fifo.full()) {
      if (auto flit = in.link->take(now)) {
        if (injector_ != nullptr && flit->head &&
            injector_->drop_packet(fault_site_)) {
          ++packets_dropped_;
          in.dropping = true;
          drop_flit(in, *flit, now);
          continue;
        }
        const bool ok = in.fifo.push(*flit);
        IOGUARD_CHECK(ok);
      }
    }
  }

  // 2. Collect returned credits.
  for (auto& out : outputs_) {
    if (out.link) out.credits += out.link->take_credits(now);
  }

  // 3. Output allocation (wormhole) + switch traversal, one flit per output.
  for (std::size_t o = 0; o < kPortCount; ++o) {
    Output& out = outputs_[o];
    if (!out.link) continue;

    if (!out.owner) {
      // The first input in round-robin rotation whose head-of-line flit is
      // a HEAD flit routed to this output wins it.
      for (std::size_t k = 0; k < inputs_.size(); ++k) {
        const std::size_t i = (out.rr_next + k) % inputs_.size();
        const Input& in = inputs_[i];
        if (in.fifo.empty()) continue;
        const Flit& f = in.fifo.front();
        if (!f.head) continue;
        if (static_cast<std::size_t>(output_for(f)) != o) continue;
        out.owner = i;
        out.rr_next = (i + 1) % inputs_.size();
        break;
      }
    }

    if (!out.owner) continue;
    Input& in = inputs_[*out.owner];
    if (in.fifo.empty()) continue;
    const Flit& f = in.fifo.front();
    // Body flits follow the wormhole regardless of their own routing field.
    if (f.head && static_cast<std::size_t>(output_for(f)) != o) continue;
    if (out.credits == 0 || out.link->busy()) continue;

    auto popped = in.fifo.pop();
    IOGUARD_CHECK(popped.has_value());
    out.link->put(*popped, now);
    --out.credits;
    if (in.link) in.link->put_credit(now);  // freed one FIFO slot upstream
    if (popped->tail) out.owner.reset();
  }
}

bool Router::idle() const {
  for (const auto& in : inputs_)
    if (!in.fifo.empty()) return false;
  for (const auto& out : outputs_)
    if (out.owner) return false;
  return true;
}

bool Router::flit_inbound() const {
  for (const auto& in : inputs_)
    if (in.link != nullptr && in.link->busy()) return true;
  return false;
}

}  // namespace ioguard::noc
