// Synthetic RAG-QA dataset generators.
//
// The paper evaluates on Squad (single-hop), Musique (multi-hop reasoning),
// KG RAG FinSec (document-level financial QA) and QMSUM (query-based meeting
// summarization). Those corpora cannot ship with this repo, so each dataset is
// regenerated synthetically with the properties the system actually consumes:
//
//   - Table-1 token statistics (chunk size, relevant-input size, output size),
//   - query *profiles*: how many standalone facts a query needs, whether they
//     must be reasoned over jointly, and how complex the question is,
//   - a corpus in which each gold fact lives in a topically-coherent chunk,
//     flanked by hard-negative chunks that share entity vocabulary (so
//     retrieval is good-but-imperfect, and over-retrieving drags noise in),
//   - natural-language query text whose phrasing carries the complexity cues
//     an LLM profiler reads ("why", "compare", "the three quarters", ...),
//   - exact gold answers for token-F1 scoring.

#ifndef METIS_SRC_WORKLOAD_DATASET_H_
#define METIS_SRC_WORKLOAD_DATASET_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/vectordb/vectordb.h"

namespace metis {

// Knowledge atom: a statement placed into exactly one chunk.
struct Fact {
  int32_t id = -1;
  int32_t query_id = -1;  // Owning query for gold facts; owner for hard
                          // negatives too (they imitate that query's topic).
  bool gold = false;      // True: part of its query's answer.
  std::vector<std::string> entity_words;
  std::vector<std::string> answer_tokens;
  std::string sentence;
  ChunkId chunk_id = -1;
  int offset_tokens = 0;  // Token offset of the sentence inside its chunk.
};

struct RagQuery {
  int32_t id = -1;
  std::string text;
  std::vector<int32_t> gold_fact_ids;
  // Gold answer = all gold facts' tokens + conclusion tokens (joint queries).
  std::vector<std::string> gold_answer_tokens;
  std::vector<std::string> conclusion_tokens;

  // Ground-truth profile (used by evaluation and the oracle; the LLM profiler
  // must work from `text` + database metadata alone).
  bool requires_joint = false;
  bool high_complexity = false;
  int num_facts = 1;
  int ideal_summary_tokens = 40;
  int target_output_tokens = 16;
  // True when the text omits explicit quantity cues; profilers struggle here.
  bool underspecified = false;

  SimTime arrival_time = 0;  // Filled by the arrival process.
  // Tenant-class index (RunSpec::tenants) this query arrives under; assigned
  // by the runner's deterministic tenant stream. 0 when no classes are
  // configured — the single-anonymous-tenant behaviour.
  int tenant = 0;
};

struct DatasetProfile {
  std::string name;
  std::string task_type;
  int chunk_tokens = 256;
  int corpus_filler_chunks = 200;  // Pure-noise chunks on top of query chunks.
  // Query structure.
  int min_facts = 1;
  int max_facts = 1;
  double p_joint_given_multi = 1.0;   // P(joint reasoning | >1 fact).
  double p_high_complexity = 0.1;
  double p_underspecified = 0.08;
  double hard_negatives_per_fact = 1.0;
  int answer_tokens_per_fact = 4;
  int conclusion_tokens = 0;          // Extra answer tokens for joint queries.
  // Fraction of non-fact chunk tokens drawn from the chunk's topic pool
  // (entity + document words) rather than the globally shared filler vocab.
  // Controls the corpus's embedding-space geometry: at the 0.35 default the
  // shared filler dominates and chunk embeddings form one diffuse mass (IVF
  // lists carry little topical meaning); raising it concentrates chunks
  // around their topics, giving the corpus the clustered geometry real
  // document collections have — which is what makes per-query retrieval
  // depth matter (RAGGED: scattered-evidence queries need deeper scans).
  double topic_fraction = 0.35;
  // --- Hybrid-retrieval evaluation (hybrid_router.h) ---
  // hybrid_eval (set by the "<dataset>_hybrid" name suffix) rotates queries
  // through the four QueryTaskTypes (qid % 4) with per-type corpus
  // constructions that decorrelate the dense and lexical backends: factual
  // queries are won by exact rare-term matches (gold entities stay at tf 1,
  // distractors recur), semantic queries by embedding mass (gold topics
  // recur, distractors don't), temporal queries only by the time-bucket
  // metadata filter (an off-bucket decoy outranks the gold chunk in BOTH
  // text backends), and comparative queries by fusing the two lists. Stock
  // profiles never enter these branches, so their generation streams are
  // bit-identical to the pre-hybrid generator.
  bool hybrid_eval = false;
  // Typed chunk-attribute spaces (Chunk::source / time_bucket / section are
  // assigned RNG-free for EVERY dataset; these only size the value spaces).
  int num_sources = 4;
  int num_time_buckets = 4;
  // Table-1 statistics.
  int min_output_tokens = 5;
  int max_output_tokens = 10;
  int min_input_tokens = 400;         // Relevant-context footprint.
  int max_input_tokens = 2000;
  // Database metadata string shown to the profiler (paper §A.1).
  std::string metadata_description;
  std::string domain;
};

// The four evaluation datasets (paper §7.1, Table 1).
DatasetProfile SquadProfile();
DatasetProfile MusiqueProfile();
DatasetProfile FinSecProfile();
DatasetProfile QmsumProfile();
// Musique with topically-clustered embedding geometry (high topic_fraction)
// — the retrieval-depth workload. Resolvable by name ("musique_topical") but
// not part of AllDatasetProfiles().
DatasetProfile MusiqueTopicalProfile();
const std::vector<DatasetProfile>& AllDatasetProfiles();
// Resolves a profile by name. Besides the stock names, any "<dataset>_topical"
// resolves to the base profile with the clustered embedding geometry
// (topic_fraction = 0.85, as MusiqueTopicalProfile) — the
// retrieval-depth-sensitive variants the mixed depth experiments run on —
// and any "<dataset>_hybrid" to the base profile with hybrid_eval set (the
// task-type-rotated hybrid-retrieval workload bench_fig_hybrid runs on).
DatasetProfile GetDatasetProfile(const std::string& name);

// A generated dataset: retrieval DB + queries + fact registry.
class Dataset {
 public:
  Dataset(DatasetProfile profile, std::unique_ptr<VectorDatabase> db,
          std::vector<RagQuery> queries, std::unordered_map<int32_t, Fact> facts);

  const DatasetProfile& profile() const { return profile_; }
  const VectorDatabase& db() const { return *db_; }
  // Mutable database access for live-ingest runs (insert/delete streams over
  // a mutable_index backend). Such runs hold a PRIVATE Dataset instance — the
  // runner bypasses the shared dataset cache whenever the spec can mutate the
  // database, so cached corpora stay immutable.
  VectorDatabase& mutable_db() { return *db_; }
  const std::vector<RagQuery>& queries() const { return queries_; }
  const Fact& fact(int32_t id) const;
  bool has_fact(int32_t id) const { return facts_.count(id) > 0; }
  size_t num_facts() const { return facts_.size(); }

 private:
  DatasetProfile profile_;
  std::unique_ptr<VectorDatabase> db_;
  std::vector<RagQuery> queries_;
  std::unordered_map<int32_t, Fact> facts_;
};

class DatasetGenerator {
 public:
  DatasetGenerator(DatasetProfile profile, uint64_t seed);

  // Generates `num_queries` queries plus their corpus, embedded (by
  // VectorDatabase::AddChunks, across a worker pool) and indexed with the
  // given embedding model. `index_options` picks the retrieval backend the
  // dataset's VectorDatabase builds (exact flat by default; IVF for
  // retrieval-depth experiments) — the index is finalized
  // (IVF-trained) before the dataset is returned.
  std::unique_ptr<Dataset> Generate(int num_queries, const std::string& embedding_model_name,
                                    const RetrievalIndexOptions& index_options = {});

 private:
  DatasetProfile profile_;
  uint64_t seed_;
};

// Open-loop Poisson arrival times: `n` arrivals at `rate` per second.
std::vector<SimTime> PoissonArrivalTimes(Rng& rng, int n, double rate);

// Assigns arrival times to queries in place.
void AssignPoissonArrivals(std::vector<RagQuery>& queries, double rate, uint64_t seed);

// Sequential (closed-loop) arrivals are represented by arrival_time = 0 and
// are driven by the runner; this marks them.
void AssignSequentialArrivals(std::vector<RagQuery>& queries);

// --- Non-Poisson arrival processes (overload workloads) ---------------------
//
// The paper replays one well-behaved open-loop Poisson trace; overload
// control needs traffic that *exceeds* capacity. One generator joins
// AssignPoissonArrivals, deterministic per seed and parameterized by the same
// mean `rate` so "offered load" stays comparable across shapes:
//
//   kFlashCrowd: baseline Poisson at `rate` with one spike window
//                [flash_start_s, flash_start_s + flash_duration_s] during
//                which the rate multiplies by flash_factor — the
//                past-saturation regime the degradation ladder exists for.
enum class ArrivalKind { kPoisson, kFlashCrowd };

struct ArrivalProcess {
  ArrivalKind kind = ArrivalKind::kPoisson;
  // kFlashCrowd:
  double flash_start_s = 20.0;
  double flash_duration_s = 15.0;
  double flash_factor = 8.0;
};

// `n` arrival times under `process` at mean rate `rate`, strictly increasing,
// deterministic per Rng state. kPoisson reproduces PoissonArrivalTimes on the
// same Rng bit for bit.
std::vector<SimTime> ArrivalTimesFor(const ArrivalProcess& process, Rng& rng, int n,
                                     double rate);

// Assigns arrival times under `process` in place. kPoisson is bit-identical
// to AssignPoissonArrivals(queries, rate, seed) — the runner routes every
// spec through this entry point, so the default spec replays the historical
// stream exactly.
void AssignArrivals(std::vector<RagQuery>& queries, const ArrivalProcess& process,
                    double rate, uint64_t seed);

}  // namespace metis

#endif  // METIS_SRC_WORKLOAD_DATASET_H_
