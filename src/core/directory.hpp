#ifndef STAPL_CORE_DIRECTORY_HPP
#define STAPL_CORE_DIRECTORY_HPP

// Distributed directory (dissertation Ch. V.C.3 / Ch. XI.F.2).
//
// The directory is the mechanism that frees a pContainer from purely
// arithmetic GID resolution: each GID has a *home location* holding its
// authoritative owner record, so elements can be registered, found and
// *moved* at run time without replicating global metadata.  The home is the
// GID's placement when the directory has a default owner (the partition and
// mapper a container installs in make_dynamic), so a GID that never moved
// is homed where it lives and a request for it costs one hop; without a
// default owner (dynamic pGraph) the home is a hash of the GID.
//
// Per-location state of one directory:
//   * m_registry — authoritative owner records of the GIDs *homed* here,
//     each with the copyset of locations that cached the answer;
//   * m_owned    — the GIDs whose element currently lives on this location;
//   * m_away     — forwarding hints left behind by outbound migrations
//     (requests that still arrive here chase the hint, Ch. XI.F.2
//     "dynamic with forwarding"); bounded by home-driven reclamation:
//     each record update retires the hints of all but the most recent
//     former owner;
//   * m_cache    — owner cache filled by the home: on every cold lookup
//     (resolve), and once per copyset subscription when it forwards work to
//     an owner other than itself, where the fill saves the next access a
//     hop; invalidated by the home when the owner record changes
//     (migration, re-registration, erase).
//
// Work routing (`invoke_where`) migrates the *request* to the data: caller
// -> (cache | home) -> owner, with at most one hop added per stale level.
// When metadata is still in flight (registration or migration racing the
// request), the request parks via post_to_self and is retried once per
// poll round — it stays visible to rmi_fence's termination detection, so a
// fence cannot pass over forwarded-but-unexecuted work.
//
// All inter-representative traffic uses the ARMI primitives, so every
// handler runs on its own location's thread, and so does every caller that
// enters a representative directly (the single-writer rule of runtime.hpp).
// The maps below therefore take no lock; debug builds assert the rule
// wherever a caller outside the RMI layer enters.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"

namespace stapl {

/// Bounded top-k frequency sketch (space-saving, Metwally et al.): at most
/// `capacity` candidates are tracked; when full, the minimum-count candidate
/// is evicted and its count is inherited by the newcomer as an error bound.
/// Counts overestimate by at most the inherited error — exactly the guarantee
/// a greedy migration planner needs: a candidate with a large tracked count
/// is certainly hot, and the map can never grow past the configured capacity
/// no matter how many distinct GIDs are accessed.
template <typename GID, typename Hash = std::hash<GID>>
class space_saving_tracker {
 public:
  struct entry {
    std::uint64_t count = 0;  ///< estimated access count (upper bound)
    std::uint64_t error = 0;  ///< maximum overestimation (inherited)
  };

  void set_capacity(std::size_t k) { m_capacity = k; }
  [[nodiscard]] std::size_t capacity() const noexcept { return m_capacity; }
  [[nodiscard]] std::size_t size() const noexcept { return m_entries.size(); }

  /// Records one observed access of `g`.
  void note(GID const& g)
  {
    auto it = m_entries.find(g);
    if (it != m_entries.end()) {
      it->second.count += 1;
      return;
    }
    if (m_entries.size() < m_capacity) {
      m_entries.emplace(g, entry{1, 0});
      return;
    }
    if (m_capacity == 0)
      return;
    // O(capacity) eviction scan: only on sketch misses, and the balancer
    // uses small capacities (tens).  Swap in a stream-summary bucket list
    // if hot_k ever grows to thousands.
    auto victim = m_entries.begin();
    for (auto e = m_entries.begin(); e != m_entries.end(); ++e)
      if (e->second.count < victim->second.count)
        victim = e;
    entry const inherited{victim->second.count + 1, victim->second.count};
    m_entries.erase(victim);
    m_entries.emplace(g, inherited);
  }

  /// Tracked candidates with their count estimates, hottest first.
  [[nodiscard]] std::vector<std::pair<GID, std::uint64_t>> top() const
  {
    std::vector<std::pair<GID, std::uint64_t>> out;
    out.reserve(m_entries.size());
    for (auto const& [g, e] : m_entries)
      out.emplace_back(g, e.count);
    std::sort(out.begin(), out.end(), [](auto const& a, auto const& b) {
      return a.second > b.second;
    });
    return out;
  }

  /// Stops tracking `g` (its element was erased).
  void erase(GID const& g) { m_entries.erase(g); }

  void clear() { m_entries.clear(); }

 private:
  std::size_t m_capacity = 0;
  std::unordered_map<GID, entry, Hash> m_entries;
};

/// Distributed GID -> owner-location directory.  One representative per
/// location (collective construction, like any p_object).
///
/// The element *owner* is the location whose bContainer currently stores
/// the element; the *home* of a GID (home_of) is the location holding its
/// owner record.  Owners register/unregister; anyone may resolve or
/// route work; migration updates the record and invalidates stale caches.
template <typename GID, typename Hash = std::hash<GID>>
class directory : public p_object {
 public:
  using gid_type = GID;
  /// Type-erased work item routed to the owner of a GID.  It runs on the
  /// owner's thread, so this_location() is the owner and the work reaches
  /// its container through get_registered_object.
  using work_item = std::function<void()>;

  /// Installs the placement: the closed-form owner of every GID (e.g. a
  /// container's partition + mapper), which is also its home.  The home
  /// consults it for GIDs without a record.  Without it, requests for
  /// unknown GIDs park until a registration arrives.  Install it on every
  /// location before any traffic, so all agree on each GID's home.
  void set_default_owner(std::function<location_id(GID const&)> f)
  {
    m_default_owner = std::move(f);
  }

  /// Selects between the two Ch. XI.F.2 translation modes: with forwarding
  /// (default) unresolved work migrates through the home; without, the
  /// requester synchronously fetches the owner first (two round trips).
  void set_forwarding(bool enable) noexcept { m_forwarding = enable; }

  /// Home location of a GID's owner record: its placement when one is
  /// installed, else a golden-ratio mix of the hash so clustered GIDs
  /// spread over all locations.
  [[nodiscard]] location_id home_of(GID const& g) const
  {
    if (m_default_owner)
      return m_default_owner(g);
    auto const h = static_cast<std::uint64_t>(Hash{}(g));
    return static_cast<location_id>((h * 0x9E3779B97F4A7C15ull >> 32) %
                                    get_num_locations());
  }

  /// True when this location currently owns the element of `g`.
  [[nodiscard]] bool owns(GID const& g) const
  {
    assert(on_own_thread());
    return m_owned.count(g) != 0;
  }

  /// Copy of this location's directory counters.  Every directory on a
  /// location counts into the same block (`metrics::counters::dir`).
  [[nodiscard]] auto stats() const
  {
    assert(on_own_thread());
    return metrics::local().dir;
  }

  /// Drops this location's owner cache and its subscriptions at the
  /// homes, so the next routed access to each GID is cold and is filled
  /// again (bench/test support; the homes learn of it by the next fence).
  void clear_cache()
  {
    assert(on_own_thread());
    for (auto const& entry : m_cache)
      run_on(home_of(entry.first),
             [g = entry.first, me = get_location_id()](directory& d) {
               if (auto const it = d.m_registry.find(g);
                   it != d.m_registry.end())
                 std::erase(it->second.copyset, me);
             });
    m_cache.clear();
  }

  /// Outstanding forwarding hints held on this location.  Home-driven
  /// reclamation (see handle_record_owner) bounds this at one live hint per
  /// migrating GID system-wide, however many times the element moves.
  [[nodiscard]] std::size_t hint_count() const
  {
    assert(on_own_thread());
    return m_away.size();
  }

  // -------------------------------------------------------------------------
  // Access tracking (load-balancing support; see core/load_balancer.hpp)
  // -------------------------------------------------------------------------

  /// Starts counting owner-side element accesses into a per-epoch load
  /// counter and a bounded hot-GID tracker of capacity `top_k`.  Intended to
  /// be called collectively (same capacity everywhere) at a quiesce point.
  void enable_access_tracking(std::size_t top_k)
  {
    assert(on_own_thread());
    m_hot.set_capacity(top_k);
    m_hot.clear();
    m_epoch_accesses = 0;
    m_track_accesses = true;
  }

  /// Records one element access executed on this location as the owner, in
  /// the epoch's load counter and in the hot-GID sketch.  Called by the
  /// container's dynamic dispatch; no-op unless tracking is enabled.
  void note_access(GID const& g)
  {
    assert(on_own_thread());
    if (!m_track_accesses)
      return;
    m_epoch_accesses += 1;
    metrics::local().dir.owner_accesses += 1;
    m_hot.note(g);
  }

  /// Owner-side accesses recorded since the last reset_epoch().
  [[nodiscard]] std::uint64_t epoch_accesses() const
  {
    assert(on_own_thread());
    return m_epoch_accesses;
  }

  /// Tracked hot GIDs with space-saving count estimates, hottest first.
  [[nodiscard]] std::vector<std::pair<GID, std::uint64_t>> hot_elements() const
  {
    assert(on_own_thread());
    return m_hot.top();
  }

  /// Ends the measurement epoch: zeroes the load counter and the tracker so
  /// the next epoch observes only fresh traffic.
  void reset_epoch()
  {
    assert(on_own_thread());
    m_epoch_accesses = 0;
    m_hot.clear();
  }

  // -------------------------------------------------------------------------
  // Registration (asynchronous; complete at the next rmi_fence)
  // -------------------------------------------------------------------------

  /// Takes local ownership of `g` without creating a home record.  Only
  /// valid when `g`'s placement is this location (e.g. a container seeding
  /// its current elements in make_dynamic): this location is then `g`'s
  /// home and materializes an identical record lazily on first use, so no
  /// registration traffic is needed.
  void seed_ownership(GID const& g)
  {
    assert(on_own_thread());
    m_owned.insert(g);
    m_owned_seq.erase(g);
    m_away.erase(g);
    m_cache.erase(g);
  }

  /// Declares this location the owner of `g` and records it at the home.
  void register_gid(GID const& g)
  {
    assert(on_own_thread());
    m_owned.insert(g);
    m_owned_seq.erase(g); // a fresh incarnation restarts the hop chain
    m_away.erase(g);
    update_home_record(g);
  }

  /// Removes `g` from this location and erases its home record.  The key
  /// also leaves the hot-GID sketch, so no rebalance plans to move it.
  void unregister_gid(GID const& g)
  {
    assert(on_own_thread());
    m_owned.erase(g);
    m_owned_seq.erase(g);
    m_away.erase(g);
    m_cache.erase(g);
    m_hot.erase(g);
    run_on(home_of(g), [g](directory& d) { d.handle_erase_record(g); });
  }

  // -------------------------------------------------------------------------
  // Resolution
  // -------------------------------------------------------------------------

  /// Owner of `g` using only location-local knowledge (ownership, home
  /// record, cache); nullopt when answering would need communication.
  [[nodiscard]] std::optional<location_id> try_resolve(GID const& g) const
  {
    assert(on_own_thread());
    if (m_owned.count(g))
      return get_location_id();
    if (home_of(g) == get_location_id()) {
      auto it = m_registry.find(g);
      if (it != m_registry.end())
        return it->second.owner;
      return std::nullopt;
    }
    auto it = m_cache.find(g);
    if (it != m_cache.end())
      return it->second;
    return std::nullopt;
  }

  /// Blocking owner lookup: answers locally when possible, otherwise asks
  /// the home synchronously, subscribing this location to invalidations.
  /// The home pushes the answer into this location's cache as a separate
  /// message ordered against its invalidations, so a migration racing the
  /// lookup cannot strand a stale entry here; the return value is the
  /// point-in-time owner.  Returns invalid_location for unknown GIDs on a
  /// directory without a default owner.
  [[nodiscard]] location_id resolve(GID const& g)
  {
    assert(on_own_thread());
    latency::timed_op lat_scope(latency::op::dir_resolve);
    if (m_owned.count(g)) {
      metrics::local().dir.local_hits += 1;
      return get_location_id();
    }
    if (auto const it = m_cache.find(g); it != m_cache.end()) {
      metrics::local().dir.cache_hits += 1;
      return it->second;
    }
    location_id const home = home_of(g);
    if (home == get_location_id())
      return handle_lookup(g, invalid_location);
    location_id const me = get_location_id();
    metrics::local().dir.cold_lookups += 1;
    return sync_rmi<directory>(
        home, this->get_handle(),
        [g, me](directory& d) { return d.handle_lookup(g, me); });
  }

  // -------------------------------------------------------------------------
  // Work routing (request forwarding)
  // -------------------------------------------------------------------------

  /// Routes `f` to the location currently owning `g` and executes it there
  /// exactly once.  Asynchronous: completion is guaranteed by the next
  /// rmi_fence even when the route crosses stale caches or an in-flight
  /// migration.  `f` must reach state it needs through registered handles
  /// (it executes on the owner's thread).  Returns whether `f` ran inline
  /// because this location owns `g`.
  template <typename F>
  bool invoke_where(GID const& g, F f)
  {
    assert(on_own_thread());
    if (m_owned.count(g)) {
      metrics::local().dir.local_hits += 1;
      f();
      return true;
    }
    route_work(g, work_item(std::move(f)), get_location_id());
    return false;
  }

  // -------------------------------------------------------------------------
  // Migration protocol hooks (driven by migration.hpp)
  // -------------------------------------------------------------------------

  /// Owner-side step: the element of `g` has been extracted and is on its
  /// way to `dest`.  Leaves a forwarding hint so requests that still arrive
  /// here chase the element.  Returns the element's migration sequence
  /// number — its position on the (linear) chain of ownership transfers —
  /// which must be handed, incremented, to the destination's
  /// migration_arrived so the home can order record updates that race each
  /// other over different channels.
  [[nodiscard]] std::uint32_t migration_departed(GID const& g,
                                                 location_id dest)
  {
    assert(on_own_thread());
    m_owned.erase(g);
    m_away[g] = dest;
    metrics::local().dir.migrations_out += 1;
    STAPL_TRACE(trace::event_kind::migration,
                static_cast<std::uint64_t>(Hash{}(g)));
    auto const it = m_owned_seq.find(g);
    if (it == m_owned_seq.end())
      return 0;
    auto const s = it->second;
    m_owned_seq.erase(it);
    return s;
  }

  /// Destination-side step: the element of `g` has been stored locally.
  /// Takes ownership and updates the home record (asynchronously), which
  /// invalidates stale caches.  `seq` is the departure's sequence number
  /// plus one.
  void migration_arrived(GID const& g, std::uint32_t seq)
  {
    assert(on_own_thread());
    m_owned.insert(g);
    m_owned_seq[g] = seq;
    m_away.erase(g);
    m_cache.erase(g);
    metrics::local().dir.migrations_in += 1;
    STAPL_TRACE(trace::event_kind::migration,
                static_cast<std::uint64_t>(Hash{}(g)));
    update_home_record(g, seq);
  }

  // -------------------------------------------------------------------------
  // Message handlers (public: they execute on remote representatives via
  // the ARMI primitives; not part of the user-facing interface)
  // -------------------------------------------------------------------------

  /// At the home: installs/overwrites the owner record of `g` and
  /// invalidates every location that cached the old owner; it lands after
  /// every fill it supersedes (run_on).  The new owner is invalidated too:
  /// a fill sent to it before the move can land after the element has
  /// moved on again, and no later record change would invalidate that
  /// entry once the copyset has forgotten the new owner.
  ///
  /// Updates carry the element's migration sequence number, because they
  /// arrive over per-sender channels that do not order hops of the same
  /// element against each other: a straggler from hop k must not overwrite
  /// the record of hop k+1 — a regressed record would route new work at a
  /// location whose hint the reclamation below may already have retired.
  /// Stale updates are dropped (seq <= rec.seq); `seq == 0` marks an
  /// explicit registration, which always supersedes the current record.
  ///
  /// Home-driven hint reclamation: once the record names a new owner, only
  /// the hint at the location that just departed is still on a fast path
  /// (the one-hop chase for requests already heading there).  Hints at
  /// older former owners are only reachable through knowledge this update
  /// invalidates, and a hint-less stale location falls back to
  /// park-and-re-route through this never-regressing record — so retiring
  /// them is safe and keeps m_away bounded at one live hint per migrating
  /// GID instead of growing with the migration history.
  void handle_record_owner(GID const& g, location_id owner,
                           std::uint32_t seq = 0)
  {
    auto& rec = m_registry[g];
    if (seq == 0) {
      // Explicit registration: a fresh incarnation of the GID, starting a
      // new sequence space (incarnations are separated by a fence, like
      // any erase/re-insert flow).  Its migrations resume from seq 1.
      rec.seq = 0;
    } else if (seq <= rec.seq) {
      // Straggler of an already-superseded hop.  Its sender's ownership
      // era is provably over, so its forwarding hint — which the era that
      // won the race never learned about — is retired here instead of
      // leaking forever.
      if (owner != rec.owner)
        reclaim_hint(g, owner);
      return;
    } else {
      rec.seq = seq;
    }
    if (rec.owner != owner) {
      std::vector<location_id> stale;
      stale.swap(rec.copyset);
      invalidate_copies(g, stale);
      location_id prev = rec.owner;
      // First update of a placed GID: it left this home, which seeded it
      // (make_dynamic) and holds its hint.
      if (prev == invalid_location && m_default_owner &&
          owner != get_location_id())
        prev = get_location_id();
      std::vector<location_id> reclaim;
      reclaim.swap(rec.former);
      if (prev != invalid_location)
        rec.former.push_back(prev);
      for (location_id l : reclaim) {
        if (l == prev || l == owner)
          continue; // prev keeps its fresh hint; the new owner holds none
        reclaim_hint(g, l);
      }
    }
    rec.owner = owner;
    rec.synthesized = false; // a real owner registered: adoption is over
  }

  /// At the home: erases the record of `g` and invalidates all copies.
  void handle_erase_record(GID const& g)
  {
    auto it = m_registry.find(g);
    if (it == m_registry.end())
      return;
    std::vector<location_id> stale;
    stale.swap(it->second.copyset);
    std::vector<location_id> former;
    former.swap(it->second.former);
    m_registry.erase(it);
    invalidate_copies(g, stale);
    // Hints of the former owners belong to a dead incarnation.
    for (location_id l : former)
      run_on(l, [g](directory& d) { d.m_away.erase(g); });
  }

  /// At the home: owner of `g`, subscribing `requester` to invalidations
  /// and pushing the answer into its cache.  Installs the default owner for
  /// unknown GIDs when available.
  [[nodiscard]] location_id handle_lookup(GID const& g, location_id requester)
  {
    home_record* rec = record_of(g);
    if (rec == nullptr)
      return invalid_location;
    fill_cache(g, *rec, requester, false);
    return rec->owner;
  }

  /// At a presumed owner: executes `f` if the element is here and chases
  /// the forwarding hint if the element left.  Otherwise the knowledge
  /// that routed `f` here was stale (a cache pointed here, or the record
  /// outran an in-flight migration — an empty state that is always a
  /// transient race): the request tells the requester to drop its cache
  /// entry, so the next access resolves fresh instead of re-bouncing here,
  /// and parks to re-route afresh next poll.  A forward never adopts
  /// `g`; only the home does (try_home_route).
  void handle_forward_exec(GID g, work_item f, location_id requester)
  {
    if (run_or_chase(g, f, requester, false, requester))
      return;
    metrics::local().dir.stale_bounces += 1;
    notify_stale(g, requester);
    park_retry(g, requester, std::move(f));
  }

  /// Cache maintenance messages.  A stale notice from location `stale`
  /// drops the entry only while it names `stale`: the notice is not ordered
  /// against the home's messages, and a fill the home sent since is newer.
  void handle_cache_update(GID const& g, location_id owner)
  {
    if (!m_owned.count(g))
      m_cache[g] = owner;
  }
  void handle_cache_invalidate(GID const& g,
                               location_id stale = invalid_location)
  {
    auto const it = m_cache.find(g);
    if (it != m_cache.end() &&
        (stale == invalid_location || it->second == stale))
      m_cache.erase(it);
    metrics::local().dir.invalidations += 1;
  }

  /// The home retired this location's forwarding hint for `g` (a newer
  /// owner record supersedes it; see handle_record_owner).
  void handle_reclaim_hint(GID const& g)
  {
    if (m_away.erase(g) != 0)
      metrics::local().dir.hints_reclaimed += 1;
  }

 private:
  struct home_record {
    location_id owner = invalid_location;
    /// Position of `owner` on the element's chain of ownership transfers.
    /// Updates whose seq does not advance this are stragglers of
    /// superseded hops and are dropped, so the record never regresses
    /// (the per-sender channels do not order different hops of the same
    /// element against each other).
    std::uint32_t seq = 0;
    /// True when the record was materialized lazily from the placement
    /// instead of an explicit registration; it then names the home itself.
    /// Only such records let the home adopt `g`: no registration or
    /// migration ever produced them, so the home may legitimately hold
    /// neither element nor hint (a fresh GID the container creates on first
    /// touch).  A registered/migrated owner always holds one or the other,
    /// so an empty owner is a transient race (e.g. a reclaimed hint
    /// outrunning the next record update) and must park instead of
    /// adopting — adoption there would fork ownership.
    bool synthesized = false;
    /// Locations whose cache holds this record's answer (never the home).
    std::vector<location_id> copyset;
    /// Former owners (they hold forwarding hints for this GID); their
    /// hints are cleared when the record is erased, so chains from dead
    /// incarnations cannot persist.
    std::vector<location_id> former;
  };

  /// The single-writer rule (runtime.hpp): only the representative's own
  /// location thread may enter it.
  [[nodiscard]] bool on_own_thread() const noexcept
  {
    return this_location() == get_location_id();
  }

  /// Runs `handler(d)` on the representative `d` of location `l`: inline
  /// when `l` is this location, without counting a local invocation, else
  /// as an RMI through `l`'s inbox.  Handlers one location sends another
  /// run there in the order they were sent, so the home's cache fills and
  /// invalidations reach each location in the order the home emitted them
  /// — all the coherence argument needs.
  template <typename Handler>
  void run_on(location_id l, Handler handler)
  {
    if (l == get_location_id())
      handler(*this);
    else
      async_rmi<directory>(l, this->get_handle(), std::move(handler));
  }

  /// Points `g`'s home record at this location (registration and
  /// migration-arrival share this step; seq 0 marks a registration).
  void update_home_record(GID const& g, std::uint32_t seq = 0)
  {
    run_on(home_of(g), [g, owner = get_location_id(), seq](directory& d) {
      d.handle_record_owner(g, owner, seq);
    });
  }

  /// At the home: the record of `g`, materialized from the default owner
  /// when there is none yet; nullptr when there is no default owner either
  /// (the registration is still in flight).
  [[nodiscard]] home_record* record_of(GID const& g)
  {
    auto it = m_registry.find(g);
    if (it == m_registry.end()) {
      if (!m_default_owner)
        return nullptr;
      home_record rec;
      rec.owner = m_default_owner(g);
      rec.synthesized = true;
      it = m_registry.emplace(g, std::move(rec)).first;
    }
    return &it->second;
  }

  /// At the home: subscribes `requester` to invalidations of `g` and
  /// pushes the recorded owner into its cache.  No-op for anonymous
  /// requests, the owner and the home itself, and, when `once`, for a
  /// requester already subscribed, whose fill was sent.
  void fill_cache(GID const& g, home_record& rec, location_id requester,
                  bool once)
  {
    if (requester == invalid_location || requester == rec.owner ||
        requester == get_location_id())
      return;
    if (std::find(rec.copyset.begin(), rec.copyset.end(), requester) ==
        rec.copyset.end())
      rec.copyset.push_back(requester);
    else if (once)
      return;
    run_on(requester, [g, owner = rec.owner](directory& d) {
      d.handle_cache_update(g, owner);
    });
  }

  /// Retires the forwarding hint for `g` at `l`.
  void reclaim_hint(GID const& g, location_id l)
  {
    if (l != invalid_location)
      run_on(l, [g](directory& d) { d.handle_reclaim_hint(g); });
  }

  /// Drops `g` from the caches of `targets` (copyset members, so never the
  /// home).
  void invalidate_copies(GID const& g, std::vector<location_id> const& targets)
  {
    for (location_id l : targets)
      run_on(l, [g](directory& d) { d.handle_cache_invalidate(g); });
  }

  void send_forward(location_id dest, GID const& g, work_item f,
                    location_id requester)
  {
    STAPL_FAULT_POINT(fault::site::dir_forward);
    run_on(dest, [g, f = std::move(f), requester](directory& d) mutable {
      d.handle_forward_exec(g, std::move(f), requester);
    });
  }

  /// Tells `requester` that the knowledge which routed a request here was
  /// stale (no-op for anonymous requests).
  void notify_stale(GID const& g, location_id requester)
  {
    if (requester != invalid_location)
      run_on(requester, [g, me = get_location_id()](directory& d) {
        d.handle_cache_invalidate(g, me);
      });
  }

  /// The step every routing stage shares.  Runs `f` when this location
  /// owns `g`; else chases the forwarding hint `g` left here, after telling
  /// `stale` (the requester whose knowledge routed the work here, if any)
  /// to drop its cache entry; else, when `adopt`, takes ownership of `g`
  /// and runs `f`.  Returns false, with `f` untouched, when none applies.
  [[nodiscard]] bool run_or_chase(GID const& g, work_item& f,
                                  location_id requester, bool adopt,
                                  location_id stale = invalid_location)
  {
    if (!m_owned.count(g)) {
      if (auto const hint = m_away.find(g); hint != m_away.end()) {
        location_id const next = hint->second;
        metrics::local().dir.forwards += 1;
        notify_stale(g, stale);
        send_forward(next, g, std::move(f), requester);
        return true;
      }
      if (!adopt)
        return false;
      m_owned.insert(g);
    }
    work_item body = std::move(f);
    body();
    return true;
  }

  /// Routes `f` from this location: hint and cache first, then the home
  /// (forwarding mode) or a synchronous lookup (no-forwarding mode).
  void route_work(GID const& g, work_item f, location_id requester)
  {
    if (auto const hint = m_away.find(g); hint != m_away.end()) {
      metrics::local().dir.forwards += 1;
      send_forward(hint->second, g, std::move(f), requester);
      return;
    }
    if (auto const it = m_cache.find(g); it != m_cache.end()) {
      metrics::local().dir.cache_hits += 1;
      send_forward(it->second, g, std::move(f), requester);
      return;
    }
    location_id const home = home_of(g);
    bool const remote = home != get_location_id();
    if (remote && !m_forwarding) {
      // Ch. XI.F.2 "dynamic without forwarding": fetch the owner first.
      location_id const owner = resolve(g);
      if (owner == invalid_location) {
        park_retry(g, requester, std::move(f));
        return;
      }
      send_forward(owner, g, std::move(f), requester);
      return;
    }
    metrics::local().dir.home_routed += remote;
    run_on(home, [g, requester, f = std::move(f)](directory& d) mutable {
      if (!d.try_home_route(g, requester, f))
        d.park_retry(g, requester, std::move(f));
    });
  }

  /// At the home: routes `f` toward the recorded owner of `g`.  An unknown
  /// GID is adopted here, at its placement; false, with `f` untouched, when
  /// its registration is still in flight or the record points at an
  /// in-flight element.
  [[nodiscard]] bool try_home_route(GID const& g, location_id requester,
                                    work_item& f)
  {
    home_record* rec = record_of(g);
    if (rec == nullptr)
      return false; // registration still in flight: park
    if (rec->owner == get_location_id())
      // Adopt a synthesized record's fresh GID; a registered record with
      // no element or hint here outran an in-flight move: park and retry.
      return run_or_chase(g, f, requester, rec->synthesized);
    assert(!rec->synthesized && "a synthesized record names its home");
    // The owner is not the home, so the fill saves the requester's next
    // access this hop.
    fill_cache(g, *rec, requester, true);
    send_forward(rec->owner, g, std::move(f), requester);
    return true;
  }

  /// Parks `f` on this location's inbox (counted as pending traffic, so
  /// rmi_fence cannot terminate over it) and retries once per poll round
  /// until the route makes progress — the metadata it lacks travels as
  /// ordinary RMI traffic and lands between polls.
  void park_retry(GID const& g, location_id requester, work_item f)
  {
    metrics::local().dir.retries += 1;
    rmi_handle const h = this->get_handle();
    post_to_self([h, g, requester, f = std::move(f)]() mutable -> bool {
      auto* d = get_registered_object<directory>(h);
      assert(d != nullptr && "directory destroyed with parked work");
      return d->retry_route(g, requester, f);
    });
  }

  /// Re-evaluates a parked request on the polling location's representative.
  /// False keeps it parked for the next poll round.
  [[nodiscard]] bool retry_route(GID const& g, location_id requester,
                                 work_item& f)
  {
    if (run_or_chase(g, f, requester, false))
      return true;
    if (home_of(g) == get_location_id())
      return try_home_route(g, requester, f);
    // Not the home: push the request back onto the home once; the home
    // parks it again if its record is still in flight.
    route_work(g, std::move(f), requester);
    return true;
  }

  std::function<location_id(GID const&)> m_default_owner;
  bool m_forwarding = true;

  std::unordered_map<GID, home_record, Hash> m_registry;
  std::unordered_set<GID, Hash> m_owned;
  /// Migration sequence number of locally owned elements that have moved
  /// at least once (absent == 0): travels with the element and orders the
  /// home's record updates.  One entry per live migrated element, dropped
  /// on departure/erase — not a per-history map.
  std::unordered_map<GID, std::uint32_t, Hash> m_owned_seq;
  std::unordered_map<GID, location_id, Hash> m_away;
  std::unordered_map<GID, location_id, Hash> m_cache;
  /// Load-balancing support: owner-side access counting (note_access).
  bool m_track_accesses = false;
  std::uint64_t m_epoch_accesses = 0;
  space_saving_tracker<GID, Hash> m_hot;
};

} // namespace stapl

#endif
