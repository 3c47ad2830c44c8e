#ifndef COLMR_HDFS_CLUSTER_H_
#define COLMR_HDFS_CLUSTER_H_

#include <cstdint>

namespace colmr {

/// Node identity within the simulated cluster. kAnyNode marks a read
/// context with no placement (e.g. unit tests); such reads count as local.
using NodeId = int;
constexpr NodeId kAnyNode = -1;

/// Shape and cost parameters of the simulated cluster. Defaults mirror the
/// paper's testbed (Section 6.1: 40 worker nodes, 6 map slots and 1 reduce
/// slot per node, Hadoop 0.21 with 3-way replication), with the HDFS block
/// size scaled down so laptop-sized datasets still span many blocks.
struct ClusterConfig {
  int num_nodes = 40;
  int replication = 3;
  int map_slots_per_node = 6;
  int reduce_slots_per_node = 1;

  /// HDFS block size. Paper: 64 MB; scaled default keeps the
  /// blocks-per-dataset ratio realistic for ~100 MB test datasets.
  uint64_t block_size = 4ull << 20;

  /// io.file.buffer.size — granularity of every read against a datanode.
  /// The paper configures 128 KB; this is what creates RCFile's read
  /// amplification when projecting narrow columns.
  uint64_t io_buffer_size = 128 * 1024;

  // ---- I/O cost model (per map slot) ----
  /// Sequential bandwidth of one local SATA disk as seen by one task.
  double disk_bandwidth_mbps = 90.0;
  /// Per-task share of the 1 GbE link for remote (non-local) block reads
  /// (~125 MB/s wire rate divided across the node's 6 map slots).
  double network_bandwidth_mbps = 20.0;
  /// Cost of a disk seek (buffer refill at a non-contiguous offset).
  double seek_latency_ms = 8.0;

  int TotalMapSlots() const { return num_nodes * map_slots_per_node; }
};

/// Byte-level accounting of one task's (or one reader's) traffic against
/// the simulated datanodes. local/remote is decided per block by whether
/// the reading node holds a replica — the quantity the paper's co-location
/// experiment (Section 6.4) manipulates.
struct IoStats {
  uint64_t local_bytes = 0;
  uint64_t remote_bytes = 0;
  uint64_t seeks = 0;

  // ---- Failure-path accounting (fault injection and recovery) ----
  /// Replica-read attempts that failed (injected transient error or
  /// checksum mismatch) and were retried against another replica.
  uint64_t failover_reads = 0;
  /// Replica reads whose block CRC did not match the namenode's checksum.
  uint64_t checksum_failures = 0;
  /// Injected datanode latency (slow-node faults, read or write side),
  /// charged by the cost model on top of bandwidth and seek terms. The
  /// stall is also slept for real, so it shows up consistently in
  /// JobReport::wall_seconds.
  double stall_seconds = 0;
  /// Block seals that failed under an injected write fault (transient
  /// pipeline error or node death mid-write).
  uint64_t write_faults = 0;

  uint64_t TotalBytes() const { return local_bytes + remote_bytes; }

  void Add(const IoStats& other) {
    local_bytes += other.local_bytes;
    remote_bytes += other.remote_bytes;
    seeks += other.seeks;
    failover_reads += other.failover_reads;
    checksum_failures += other.checksum_failures;
    stall_seconds += other.stall_seconds;
    write_faults += other.write_faults;
  }
};

}  // namespace colmr

#endif  // COLMR_HDFS_CLUSTER_H_
