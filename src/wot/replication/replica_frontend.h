// ReplicaFrontend: the follower's serving surface — reads pass through,
// writes are rejected until promotion.
//
// Wraps the ServiceFrontend over a ReplicaService's mirrored
// TrustService. While role() is kReplica every mutating method
// (ingest_* and commit) answers a framed INVALID_ARGUMENT pointing the
// caller at the primary; queries, stats and metrics serve normally from
// the replica's snapshots. The instant Promote() flips the role the
// gate opens — no restart, no dropped connections — which is what makes
// `wot_cli replica promote` a failover and not a redeploy.
//
// The gate is a separate Frontend (not a ServiceFrontend mode) so the
// primary serving path stays byte-identical to previous releases and
// the property tests can diff the two directly.
#ifndef WOT_REPLICATION_REPLICA_FRONTEND_H_
#define WOT_REPLICATION_REPLICA_FRONTEND_H_

#include "wot/api/api.h"
#include "wot/api/frontend.h"
#include "wot/replication/replica_service.h"

namespace wot {
namespace replication {

/// \brief True for the payloads a follower must refuse (ingest_*,
/// commit).
bool IsMutationPayload(const api::RequestPayload& payload);

/// \brief Serves reads from a replica's service; gates writes on role.
class ReplicaFrontend : public api::Frontend {
 public:
  /// \p inner must front the \p replica's own service; both must
  /// outlive this frontend. The replica is attached as the replication
  /// handler. The mirrored service's registry and the replica's own are
  /// scrape sources here; the inner envelope's registry is deliberately
  /// NOT (this envelope already counts every request once).
  ReplicaFrontend(api::ServiceFrontend* inner, ReplicaService* replica)
      : inner_(inner), replica_(replica) {
    set_replication_handler(replica_);
    AddMetricsSource(inner_->service()->metrics_registry());
    AddMetricsSource(replica_->metrics_registry());
  }

  uint64_t TelemetryEpoch() const override {
    return replica_->applied_version();
  }

  /// Reads pass through to the inner ServiceFrontend's snapshot.
  bool ReadsAreLocal() const override { return true; }

 protected:
  api::Response DispatchPayload(
      const api::Request& request,
      const api::ConnectionContext& connection) override;

 private:
  api::ServiceFrontend* inner_;
  ReplicaService* replica_;
};

}  // namespace replication
}  // namespace wot

#endif  // WOT_REPLICATION_REPLICA_FRONTEND_H_
