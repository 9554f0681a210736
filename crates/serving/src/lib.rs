//! # liger-serving
//!
//! The serving layer of the Liger reproduction: batched requests, the
//! paper's workload generators (random prefill traces with sequence lengths
//! 16–128 and decode traces at batch 32), constant/Poisson arrival
//! processes, the latency/throughput metrics of §4.1, and an
//! engine-agnostic runner that serves a trace through any
//! [`InferenceEngine`] on the simulator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod analysis;
pub mod arrival;
pub mod batcher;
pub mod cluster;
pub mod disagg;
pub mod engine;
pub mod generation;
pub mod health;
pub mod membership;
pub mod metrics;
pub mod prefix;
pub mod recovery;
pub mod request;
pub mod runner;
pub mod scheduler;

pub use admission::{AdmissionConfig, AdmissionController, ShedReason, ShedRecord};
pub use analysis::{dg1_wait, mg1_latency, mg1_wait, service_moments, utilization};
pub use arrival::{ArrivalProcess, DecodeTraceConfig, LognormalTraceConfig, PrefillTraceConfig};
pub use batcher::{
    serve_queries, serve_queries_on, serve_queries_with_retry, serve_queries_with_retry_on,
    Batcher, BatcherConfig, PackedBatch, Query, QueryRunner,
};
pub use cluster::{
    route_jobs, serve_cluster, serve_cluster_on, ClusterConfig, ClusterReport, ReplicaSlot,
    RouterPolicy,
};
pub use disagg::{serve_disaggregated, serve_disaggregated_on, DisaggConfig, DisaggReport};
pub use engine::{InferenceEngine, RUNNER_TOKEN_BASE};
pub use generation::{
    serve_generations, serve_generations_on, GenerationJob, GenerationMetrics, GenerationResult,
    GenerationRunner,
};
pub use health::{HealthConfig, HealthEvents, HealthMonitor};
pub use metrics::{
    BatchingCounters, FaultCounters, MetricsSections, PrefixCounters, RecoveryCounters,
    ServingMetrics, SpecCounters,
};
pub use prefix::{block_digests, output_token, prompt_token, PrefixTag, SpecDecodeConfig};
pub use recovery::{
    serve_with_recovery, serve_with_recovery_on, RecoveryConfig, RecoveryPhase, RecoveryRunner,
};
pub use request::{Completion, Request};
pub use runner::{
    core_lookahead, serve, serve_on, serve_with_policy, serve_with_policy_on, RetryPolicy,
    ServingRunner,
};
pub use scheduler::{
    serve_continuous, serve_continuous_on, ContinuousReport, ContinuousScheduler, SchedulerConfig,
};

pub use liger_kvcache::{BlockPool, BlockPoolConfig, OutOfBlocks};
