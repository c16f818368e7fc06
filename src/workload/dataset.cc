#include "src/workload/dataset.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/text/tokenizer.h"
#include "src/text/vocabulary.h"

namespace metis {

DatasetProfile SquadProfile() {
  DatasetProfile p;
  p.name = "squad";
  p.task_type = "Single hop QA";
  p.chunk_tokens = 256;
  p.corpus_filler_chunks = 250;
  p.min_facts = 1;
  p.max_facts = 2;
  p.p_joint_given_multi = 0.25;
  p.p_high_complexity = 0.04;
  p.p_underspecified = 0.05;
  p.hard_negatives_per_fact = 2.0;
  p.answer_tokens_per_fact = 5;
  p.conclusion_tokens = 2;
  p.min_output_tokens = 5;
  p.max_output_tokens = 10;
  p.min_input_tokens = 400;
  p.max_input_tokens = 2000;
  p.metadata_description =
      "reading comprehension passages from encyclopedia articles; each question is answered by "
      "a short span inside one passage";
  p.domain = "wiki";
  return p;
}

DatasetProfile MusiqueProfile() {
  DatasetProfile p;
  p.name = "musique";
  p.task_type = "Multihop QA";
  p.chunk_tokens = 256;
  p.corpus_filler_chunks = 300;
  p.min_facts = 1;  // Some hops decompose to a single lookup (paper's Q1).
  p.max_facts = 4;
  p.p_joint_given_multi = 0.95;
  p.p_high_complexity = 0.35;
  p.p_underspecified = 0.10;
  p.hard_negatives_per_fact = 1.2;
  p.answer_tokens_per_fact = 4;
  p.conclusion_tokens = 4;
  p.min_output_tokens = 5;
  p.max_output_tokens = 20;
  p.min_input_tokens = 1000;
  p.max_input_tokens = 5000;
  p.metadata_description =
      "multihop reasoning questions over encyclopedia passages; answers require composing "
      "information from several passages";
  p.domain = "wiki";
  return p;
}

DatasetProfile FinSecProfile() {
  DatasetProfile p;
  p.name = "kg_rag_finsec";
  p.task_type = "Doc Level QA";
  p.chunk_tokens = 1024;
  p.corpus_filler_chunks = 150;
  p.min_facts = 3;
  p.max_facts = 8;
  p.p_joint_given_multi = 0.9;
  p.p_high_complexity = 0.45;
  p.p_underspecified = 0.15;
  p.hard_negatives_per_fact = 0.8;
  p.answer_tokens_per_fact = 4;
  p.conclusion_tokens = 6;
  p.min_output_tokens = 20;
  p.max_output_tokens = 40;
  p.min_input_tokens = 4000;
  p.max_input_tokens = 10000;
  p.metadata_description =
      "quarterly financial reports of Fortune 500 companies: revenue growth indicators, product "
      "release information, sales and operating costs";
  p.domain = "finance";
  return p;
}

DatasetProfile QmsumProfile() {
  DatasetProfile p;
  p.name = "qmsum";
  p.task_type = "Summarization QA";
  p.chunk_tokens = 512;
  p.corpus_filler_chunks = 200;
  p.min_facts = 4;
  p.max_facts = 10;
  p.p_joint_given_multi = 1.0;
  p.p_high_complexity = 0.65;
  p.p_underspecified = 0.18;
  p.hard_negatives_per_fact = 0.7;
  p.answer_tokens_per_fact = 5;
  p.conclusion_tokens = 8;
  p.min_output_tokens = 20;
  p.max_output_tokens = 60;
  p.min_input_tokens = 4000;
  p.max_input_tokens = 12000;
  p.metadata_description =
      "multi-domain meeting transcripts with per-speaker turns; queries ask for query-focused "
      "summaries of relevant meeting spans, decisions and reasons";
  p.domain = "meetings";
  return p;
}

const std::vector<DatasetProfile>& AllDatasetProfiles() {
  static const std::vector<DatasetProfile> kAll = {SquadProfile(), MusiqueProfile(),
                                                   FinSecProfile(), QmsumProfile()};
  return kAll;
}

DatasetProfile MusiqueTopicalProfile() {
  // Musique with the clustered embedding geometry real passage collections
  // have: most non-fact tokens come from the chunk's topic pool, so chunks
  // concentrate around their topics in embedding space and IVF lists align
  // with topics. Single-lookup queries then resolve inside one or two lists
  // while scattered-evidence multihop queries straddle several — the
  // per-query retrieval-depth workload (bench_fig_depth, depth tests). Not
  // part of AllDatasetProfiles(): the paper's Table-1 sweeps stay on the
  // four stock datasets.
  DatasetProfile p = MusiqueProfile();
  p.name = "musique_topical";
  p.topic_fraction = 0.85;
  return p;
}

DatasetProfile GetDatasetProfile(const std::string& name) {
  // Generic "<dataset>_topical": the base profile with the clustered
  // embedding geometry (topic_fraction as in MusiqueTopicalProfile, which
  // this branch reproduces for "musique_topical"). Gives every evaluation
  // dataset a retrieval-depth-sensitive variant — the mixed
  // per-dataset-depth experiments (bench_fig_mixed_depth) run on these.
  const std::string suffix = "_topical";
  if (name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    DatasetProfile p = GetDatasetProfile(name.substr(0, name.size() - suffix.size()));
    p.name = name;
    p.topic_fraction = 0.85;
    return p;
  }
  // Generic "<dataset>_hybrid": the base profile with the task-type-rotated
  // hybrid-retrieval evaluation workload (DatasetProfile::hybrid_eval).
  const std::string hybrid_suffix = "_hybrid";
  if (name.size() > hybrid_suffix.size() &&
      name.compare(name.size() - hybrid_suffix.size(), hybrid_suffix.size(),
                   hybrid_suffix) == 0) {
    DatasetProfile p =
        GetDatasetProfile(name.substr(0, name.size() - hybrid_suffix.size()));
    p.name = name;
    p.hybrid_eval = true;
    return p;
  }
  for (const auto& p : AllDatasetProfiles()) {
    if (p.name == name) {
      return p;
    }
  }
  METIS_CHECK(false && "unknown dataset");
  std::abort();
}

Dataset::Dataset(DatasetProfile profile, std::unique_ptr<VectorDatabase> db,
                 std::vector<RagQuery> queries, std::unordered_map<int32_t, Fact> facts)
    : profile_(std::move(profile)),
      db_(std::move(db)),
      queries_(std::move(queries)),
      facts_(std::move(facts)) {}

const Fact& Dataset::fact(int32_t id) const {
  auto it = facts_.find(id);
  METIS_CHECK(it != facts_.end());
  return it->second;
}

DatasetGenerator::DatasetGenerator(DatasetProfile profile, uint64_t seed)
    : profile_(std::move(profile)), seed_(seed) {}

namespace {

constexpr const char* kNumberWords[] = {"zero", "one", "two",   "three", "four", "five",
                                        "six",  "seven", "eight", "nine",  "ten"};

constexpr const char* kRelations[] = {"revenue",  "location", "origin",   "duration",
                                      "capacity", "founder",  "schedule", "outcome"};

// Generates a globally-unique lowercase word by retrying against `seen`.
std::string UniqueWord(Rng& rng, std::unordered_set<std::string>& seen) {
  for (;;) {
    std::string w = MakeWord(rng);
    if (seen.insert(w).second) {
      return w;
    }
  }
}

// One sentence stating a fact: entities + relation + answer tokens. No
// function words: they would be shared with every query template and smear
// the retrieval signal across unrelated chunks.
std::string FactSentence(const Fact& fact, const std::string& relation) {
  std::vector<std::string> words;
  for (const auto& e : fact.entity_words) {
    words.push_back(e);
  }
  words.push_back(relation);
  for (const auto& a : fact.answer_tokens) {
    words.push_back(a);
  }
  return Join(words, " ");
}

struct PendingChunk {
  std::vector<int32_t> fact_ids;
  std::vector<std::string> topic_words;  // Recur through the filler.
};

}  // namespace

std::unique_ptr<Dataset> DatasetGenerator::Generate(int num_queries,
                                                    const std::string& embedding_model_name,
                                                    const RetrievalIndexOptions& index_options) {
  // Zero queries is a valid degenerate corpus (filler chunks only) — the
  // ingest-only runner specs use it to measure pure write paths.
  METIS_CHECK_GE(num_queries, 0);
  Rng root(seed_ ^ HashString64(profile_.name));
  Rng structure = root.Fork("structure");
  Rng words = root.Fork("words");
  Rng textgen = root.Fork("textgen");

  Vocabulary filler_vocab(root.Fork("vocab").seed(), 1800);
  std::unordered_set<std::string> unique_words;

  std::vector<RagQuery> queries;
  std::unordered_map<int32_t, Fact> facts;
  int32_t next_fact_id = 0;

  // Chunks to assemble, with the doc structure that owns them.
  std::vector<PendingChunk> pending;
  std::vector<int32_t> chunk_doc;  // Parallel doc ids for debugging.
  std::vector<int32_t> doc_bucket;  // Per-doc time-bucket override (-1 = doc_id % buckets).
  int32_t next_doc = 0;
  const int time_buckets = std::max(1, profile_.num_time_buckets);

  for (int32_t qid = 0; qid < num_queries; ++qid) {
    RagQuery q;
    q.id = qid;
    q.num_facts = static_cast<int>(structure.UniformInt(profile_.min_facts, profile_.max_facts));
    q.requires_joint =
        q.num_facts > 1 && structure.Bernoulli(profile_.p_joint_given_multi);
    double p_high = profile_.p_high_complexity * (q.requires_joint ? 1.0 : 0.3);
    q.high_complexity = structure.Bernoulli(p_high);
    q.underspecified = structure.Bernoulli(profile_.p_underspecified);

    // --- Hybrid-eval task rotation (only "<dataset>_hybrid" profiles; stock
    // profiles never take these branches, so their generation streams are
    // bit-identical to the pre-hybrid generator) ---
    //   qid % 4: 0 factual, 1 semantic, 2 temporal, 3 comparative.
    // The flag overrides below pick the query template carrying that type's
    // classifier cue (profiler.h ClassifyTaskType).
    const int hybrid_kind = profile_.hybrid_eval ? static_cast<int>(qid % 4) : -1;
    const int hybrid_bucket = hybrid_kind == 2 ? static_cast<int>(qid) % time_buckets : -1;
    if (hybrid_kind >= 0) {
      q.underspecified = false;
      switch (hybrid_kind) {
        case 0:  // factual: "what is the ..."
          q.num_facts = 1;
          q.requires_joint = false;
          q.high_complexity = false;
          break;
        case 1:  // semantic: "why did ... explain ..."
          q.num_facts = 1;
          q.requires_joint = false;
          q.high_complexity = true;
          break;
        case 2:  // temporal: "when and why ..." + " in period<b>" suffix
          q.num_facts = 1;
          q.requires_joint = true;
          q.high_complexity = true;
          break;
        case 3:  // comparative: "compare the ..."
          q.num_facts = std::max(2, q.num_facts);
          q.requires_joint = true;
          q.high_complexity = false;
          break;
      }
    }

    // --- Facts ---
    std::string relation = kRelations[structure.Index(std::size(kRelations))];
    std::vector<Fact*> gold_facts;
    for (int f = 0; f < q.num_facts; ++f) {
      Fact fact;
      fact.id = next_fact_id++;
      fact.query_id = qid;
      fact.gold = true;
      int entity_n = static_cast<int>(structure.UniformInt(2, 3));
      if (hybrid_kind == 0) {
        // Factual: three rare entity terms give BM25 a decisive multi-term
        // match over the single-shared-term distractors below.
        entity_n = 3;
      }
      for (int e = 0; e < entity_n; ++e) {
        fact.entity_words.push_back(UniqueWord(words, unique_words));
      }
      int answer_n = profile_.answer_tokens_per_fact +
                     static_cast<int>(structure.UniformInt(-1, 1));
      answer_n = std::max(answer_n, 2);
      for (int a = 0; a < answer_n; ++a) {
        fact.answer_tokens.push_back(UniqueWord(words, unique_words));
      }
      fact.sentence = FactSentence(fact, relation);
      q.gold_fact_ids.push_back(fact.id);
      facts[fact.id] = std::move(fact);
      gold_facts.push_back(&facts[q.gold_fact_ids.back()]);
    }

    // --- Gold answer tokens ---
    for (const Fact* f : gold_facts) {
      for (const auto& t : f->answer_tokens) {
        q.gold_answer_tokens.push_back(t);
      }
    }
    if (q.requires_joint && profile_.conclusion_tokens > 0) {
      for (int c = 0; c < profile_.conclusion_tokens; ++c) {
        q.conclusion_tokens.push_back(UniqueWord(words, unique_words));
      }
      for (const auto& t : q.conclusion_tokens) {
        q.gold_answer_tokens.push_back(t);
      }
    }
    q.target_output_tokens = std::clamp(static_cast<int>(q.gold_answer_tokens.size()),
                                        profile_.min_output_tokens, profile_.max_output_tokens);
    q.ideal_summary_tokens =
        std::clamp(30 + 10 * q.num_facts + (q.high_complexity ? 60 : 0), 30, 200);

    // --- Document layout: relevant-context footprint per Table 1 ---
    int input_tokens = static_cast<int>(
        structure.UniformInt(profile_.min_input_tokens, profile_.max_input_tokens));
    int doc_chunks = std::max(q.num_facts, input_tokens / profile_.chunk_tokens);
    std::vector<std::string> doc_topic;
    for (int t = 0; t < 4; ++t) {
      doc_topic.push_back(UniqueWord(words, unique_words));
    }

    // Gold facts occupy distinct chunks (multi-hop) except single-hop
    // multi-fact queries, which co-locate facts in one chunk.
    bool colocate = !q.requires_joint && q.num_facts > 1;
    std::vector<PendingChunk> doc(static_cast<size_t>(doc_chunks));
    for (auto& c : doc) {
      c.topic_words = doc_topic;
    }
    for (size_t f = 0; f < q.gold_fact_ids.size(); ++f) {
      size_t slot = colocate ? 0 : f % doc.size();
      doc[slot].fact_ids.push_back(q.gold_fact_ids[f]);
      Fact& fact = facts[q.gold_fact_ids[f]];
      // Entity words dominate the owning chunk's topic pool (a report section
      // keeps naming its subject), which is what retrieval keys on. Tripled so
      // the entity signal stands clear of hashed-projection noise.
      // Hybrid exceptions: factual golds (and the odd-indexed comparative
      // golds) keep their entities at tf 1 — the fact sentence only — so the
      // dense hashed-BoW signal stays weak there and only the lexical
      // backend's rare-term idf recovers them.
      bool recur = true;
      if (hybrid_kind == 0 || (hybrid_kind == 3 && f % 2 == 1)) {
        recur = false;
      }
      if (recur) {
        for (const auto& e : fact.entity_words) {
          doc[slot].topic_words.push_back(e);
          doc[slot].topic_words.push_back(e);
          doc[slot].topic_words.push_back(e);
        }
      }
    }

    // Hard negatives: same-topic facts with wrong answers, placed in the
    // remaining doc chunks. They share one entity word with a gold fact, so
    // they rank close behind the gold chunks in retrieval.
    int hard_n = static_cast<int>(profile_.hard_negatives_per_fact * q.num_facts + 0.5);
    if (hybrid_kind == 0) {
      hard_n = std::max(hard_n, 2);  // Factual needs real dense competition.
    } else if (hybrid_kind == 2) {
      hard_n = 0;  // Temporal: the off-bucket decoy doc below is the distractor.
    }
    for (int h = 0; h < hard_n; ++h) {
      Fact neg;
      neg.id = next_fact_id++;
      neg.query_id = qid;
      neg.gold = false;
      const Fact& src = facts[q.gold_fact_ids[static_cast<size_t>(h) % q.gold_fact_ids.size()]];
      // Shares the source fact's entity anchor (both words), so it competes
      // head-on with the gold chunk in retrieval — the distractor pattern that
      // makes over-fetching necessary (§4.2's 2-3x rule).
      // Hybrid shapes: factual/comparative distractors share only ONE entity
      // word (they must recur hard enough to beat the tf-1 gold in the dense
      // space while matching just 1 of 3 rare query terms in BM25); semantic
      // distractors share the full entity anchor but at recurrence 1, so the
      // gold chunk's tripled topic mass wins both backends.
      if (hybrid_kind == 0 || hybrid_kind == 3) {
        neg.entity_words.push_back(src.entity_words[0]);
        neg.entity_words.push_back(UniqueWord(words, unique_words));
        neg.entity_words.push_back(UniqueWord(words, unique_words));
      } else if (hybrid_kind == 1) {
        neg.entity_words.push_back(src.entity_words[1]);
        neg.entity_words.push_back(src.entity_words[0]);
        neg.entity_words.push_back(UniqueWord(words, unique_words));
      } else {
        neg.entity_words.push_back(src.entity_words[0]);
        neg.entity_words.push_back(src.entity_words[1]);
        neg.entity_words.push_back(UniqueWord(words, unique_words));
      }
      for (int a = 0; a < profile_.answer_tokens_per_fact; ++a) {
        neg.answer_tokens.push_back(UniqueWord(words, unique_words));
      }
      neg.sentence = FactSentence(neg, relation);
      size_t slot = doc.size() > 1
                        ? 1 + static_cast<size_t>(h) % (doc.size() - 1)
                        : 0;
      doc[slot].fact_ids.push_back(neg.id);
      // Distractor strength varies: recurrence 2..4 against the gold chunk's
      // 3, so some negatives outrank the gold. This is what makes the right
      // retrieval width query-dependent — the variance a static num_chunks
      // cannot serve (§3).
      int reps = 2 + h % 3;
      if (hybrid_kind == 1) {
        reps = 1;  // Semantic golds must win the dense space decisively.
      } else if (hybrid_kind == 3) {
        reps = 2;  // Comparative: distractors stay below the even golds' 3.
      }
      for (const auto& e : neg.entity_words) {
        for (int r = 0; r < reps; ++r) {
          doc[slot].topic_words.push_back(e);
        }
      }
      facts[neg.id] = std::move(neg);
    }

    for (auto& c : doc) {
      pending.push_back(std::move(c));
      chunk_doc.push_back(next_doc);
    }
    ++next_doc;
    doc_bucket.push_back(hybrid_bucket);

    if (hybrid_kind == 2) {
      // Temporal decoy: the SAME entity anchor as the gold fact at strictly
      // higher pool recurrence (5 vs 3), in its own doc assigned the NEXT
      // time bucket. Both text backends rank it above the gold chunk —
      // linear-tf dense and saturating-tf BM25 are both monotone in tf — so
      // only the router's time-bucket metadata filter recovers the gold.
      const Fact& src = facts[q.gold_fact_ids[0]];
      Fact decoy;
      decoy.id = next_fact_id++;
      decoy.query_id = qid;
      decoy.gold = false;
      decoy.entity_words = src.entity_words;
      for (int a = 0; a < profile_.answer_tokens_per_fact; ++a) {
        decoy.answer_tokens.push_back(UniqueWord(words, unique_words));
      }
      decoy.sentence = FactSentence(decoy, relation);
      PendingChunk dc;
      dc.fact_ids.push_back(decoy.id);
      for (int t = 0; t < 4; ++t) {
        dc.topic_words.push_back(UniqueWord(words, unique_words));
      }
      for (const auto& e : decoy.entity_words) {
        for (int r = 0; r < 5; ++r) {
          dc.topic_words.push_back(e);
        }
      }
      facts[decoy.id] = std::move(decoy);
      pending.push_back(std::move(dc));
      chunk_doc.push_back(next_doc);
      ++next_doc;
      doc_bucket.push_back((hybrid_bucket + 1) % time_buckets);
    }

    // --- Query text (the only thing the LLM profiler may read) ---
    std::vector<std::string> entity_phrases;
    for (const Fact* f : gold_facts) {
      entity_phrases.push_back(Join(f->entity_words, " "));
    }
    std::string enumeration;
    if (q.underspecified) {
      enumeration = "the recent " + relation + " records of " + entity_phrases[0];
    } else if (entity_phrases.size() == 1) {
      enumeration = entity_phrases[0];
    } else {
      std::vector<std::string> head(entity_phrases.begin(), entity_phrases.end() - 1);
      enumeration = Join(head, ", ") + " and " + entity_phrases.back();
      // An explicit count cue, like "the three quarters of 2024".
      if (entity_phrases.size() < std::size(kNumberWords)) {
        enumeration = StrFormat("the %s values of ", kNumberWords[entity_phrases.size()]) +
                      enumeration;
      }
    }

    if (!q.requires_joint && !q.high_complexity) {
      q.text = StrFormat("what is the %s of %s?", relation.c_str(), enumeration.c_str());
    } else if (!q.requires_joint && q.high_complexity) {
      q.text = StrFormat("why did the %s of %s change? explain the main reason.",
                         relation.c_str(), enumeration.c_str());
    } else if (q.requires_joint && !q.high_complexity) {
      q.text = StrFormat("compare the %s across %s and identify the highest one.",
                         relation.c_str(), enumeration.c_str());
    } else if (profile_.domain == "meetings") {
      q.text = StrFormat(
          "summarize the discussion of %s regarding %s, including why each decision was made.",
          enumeration.c_str(), relation.c_str());
    } else {
      q.text = StrFormat(
          "when and why did the %s of %s change? summarize the reasons for each shift.",
          relation.c_str(), enumeration.c_str());
    }
    if (hybrid_kind == 2) {
      // "periodN" survives tokenization as one alphanumeric token; the
      // profiler parses it into QueryProfile::time_bucket (ClassifyTaskType)
      // and the router turns it into a metadata filter.
      q.text += StrFormat(" in period%d", hybrid_bucket);
    }

    queries.push_back(std::move(q));
  }

  // --- Pure filler chunks (background corpus noise) ---
  for (int f = 0; f < profile_.corpus_filler_chunks; ++f) {
    PendingChunk c;
    for (int t = 0; t < 5; ++t) {
      c.topic_words.push_back(UniqueWord(words, unique_words));
    }
    pending.push_back(std::move(c));
    chunk_doc.push_back(next_doc);
  }
  ++next_doc;
  doc_bucket.push_back(-1);

  // --- Assemble chunk text and build the vector database ---
  DatabaseMetadata meta;
  meta.description = StrFormat("The dataset consists of %s. The chunk size is %d tokens.",
                               profile_.metadata_description.c_str(), profile_.chunk_tokens);
  meta.chunk_size_tokens = profile_.chunk_tokens;
  meta.domain = profile_.domain;

  auto db = std::make_unique<VectorDatabase>(
      EmbeddingModel(GetEmbeddingModel(embedding_model_name)), meta, index_options);

  std::vector<Chunk> chunk_objs;
  chunk_objs.reserve(pending.size());
  for (size_t ci = 0; ci < pending.size(); ++ci) {
    PendingChunk& pc = pending[ci];
    // Build the chunk as a token stream: topic-seasoned filler with fact
    // sentences spliced in at deterministic positions.
    std::vector<std::string> tokens;
    tokens.reserve(static_cast<size_t>(profile_.chunk_tokens));

    // Compute where each fact sentence starts (evenly spread with jitter).
    struct Placement {
      int32_t fact_id;
      int offset;
    };
    std::vector<Placement> placements;
    int region = profile_.chunk_tokens / std::max<int>(1, static_cast<int>(pc.fact_ids.size()));
    for (size_t f = 0; f < pc.fact_ids.size(); ++f) {
      int base = static_cast<int>(f) * region;
      int jitter = static_cast<int>(textgen.UniformInt(0, std::max(1, region / 3)));
      placements.push_back(Placement{pc.fact_ids[f], base + jitter});
    }

    size_t next_fact = 0;
    while (static_cast<int>(tokens.size()) < profile_.chunk_tokens) {
      if (next_fact < placements.size() &&
          static_cast<int>(tokens.size()) >= placements[next_fact].offset) {
        Fact& fact = facts[placements[next_fact].fact_id];
        fact.offset_tokens = static_cast<int>(tokens.size());
        for (const auto& w : SplitWords(fact.sentence)) {
          tokens.push_back(w);
        }
        ++next_fact;
        continue;
      }
      // Topic word topic_fraction (default ~35%) of the time, global filler
      // otherwise. Filler is drawn uniformly: with sublinear-TF embeddings, a
      // Zipf head would otherwise give every chunk a large shared component
      // and drown the topic signal.
      if (!pc.topic_words.empty() && textgen.Bernoulli(profile_.topic_fraction)) {
        tokens.push_back(pc.topic_words[textgen.Index(pc.topic_words.size())]);
      } else {
        tokens.push_back(filler_vocab.word(textgen.Index(filler_vocab.size())));
      }
    }
    tokens.resize(static_cast<size_t>(profile_.chunk_tokens));

    Chunk chunk;
    chunk.doc_id = chunk_doc[ci];
    chunk.text = Join(tokens, " ");
    chunk.token_count = profile_.chunk_tokens;
    chunk.fact_ids = pc.fact_ids;
    // Typed attributes, assigned RNG-free for every dataset (metadata-filter
    // push-down keys on them; stock generation streams are untouched):
    // source rotates by document, time_bucket follows the document (with the
    // per-doc override the temporal hybrid construction sets), section is the
    // chunk's ordinal within its document.
    chunk.source = chunk.doc_id % std::max(1, profile_.num_sources);
    int32_t override_bucket = chunk.doc_id < static_cast<int32_t>(doc_bucket.size())
                                  ? doc_bucket[static_cast<size_t>(chunk.doc_id)]
                                  : -1;
    chunk.time_bucket =
        override_bucket >= 0 ? override_bucket : chunk.doc_id % time_buckets;
    chunk.section = (ci > 0 && chunk_doc[ci] == chunk_doc[ci - 1])
                        ? chunk_objs.back().section + 1
                        : 0;
    chunk_objs.push_back(std::move(chunk));
  }

  // Bulk load: one EmbedBatch over the whole corpus (sharded across the
  // pool), then finalize the index — for the IVF backend this trains the
  // coarse quantizer, so retrieval-depth experiments get a ready index.
  ThreadPool pool(ThreadPool::DefaultThreads());
  std::vector<ChunkId> chunk_ids = db->AddChunks(std::move(chunk_objs), &pool);
  METIS_CHECK_EQ(chunk_ids.size(), pending.size());
  for (size_t ci = 0; ci < pending.size(); ++ci) {
    for (int32_t fid : pending[ci].fact_ids) {
      facts[fid].chunk_id = chunk_ids[ci];
    }
  }
  db->FinalizeIndex(&pool);

  return std::make_unique<Dataset>(profile_, std::move(db), std::move(queries),
                                   std::move(facts));
}

std::vector<SimTime> PoissonArrivalTimes(Rng& rng, int n, double rate) {
  METIS_CHECK_GT(rate, 0.0);
  std::vector<SimTime> times;
  times.reserve(static_cast<size_t>(n));
  SimTime t = 0;
  for (int i = 0; i < n; ++i) {
    t += rng.Exponential(rate);
    times.push_back(t);
  }
  return times;
}

void AssignPoissonArrivals(std::vector<RagQuery>& queries, double rate, uint64_t seed) {
  Rng rng(seed ^ 0x41525256ull);
  std::vector<SimTime> times = PoissonArrivalTimes(rng, static_cast<int>(queries.size()), rate);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].arrival_time = times[i];
  }
}

void AssignSequentialArrivals(std::vector<RagQuery>& queries) {
  for (auto& q : queries) {
    q.arrival_time = 0;
  }
}

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
    case ArrivalKind::kFlashCrowd:
      return "flash_crowd";
  }
  return "unknown";
}

namespace {

// Two-state MMPP: alternate exponential on/off periods; within each period
// arrivals are Poisson at that state's rate. The off-rate solves
// f * on + (1 - f) * off = rate so the long-run mean is preserved (clamped at
// 0 when the burst carries more than the whole mean).
std::vector<SimTime> BurstyArrivalTimes(const ArrivalProcess& p, Rng& rng, int n, double rate) {
  METIS_CHECK_GT(p.burst_factor, 1.0);
  METIS_CHECK_GT(p.burst_fraction, 0.0);
  METIS_CHECK_LT(p.burst_fraction, 1.0);
  METIS_CHECK_GT(p.mean_cycle_s, 0.0);
  double on_rate = rate * p.burst_factor;
  double off_rate =
      std::max(0.0, rate * (1.0 - p.burst_fraction * p.burst_factor) / (1.0 - p.burst_fraction));
  double mean_on_s = p.burst_fraction * p.mean_cycle_s;
  double mean_off_s = (1.0 - p.burst_fraction) * p.mean_cycle_s;

  std::vector<SimTime> times;
  times.reserve(static_cast<size_t>(n));
  SimTime t = 0;
  bool on = true;  // Start in a burst so short traces still exercise one.
  SimTime state_end = rng.Exponential(1.0 / mean_on_s);
  while (static_cast<int>(times.size()) < n) {
    double state_rate = on ? on_rate : off_rate;
    // state_rate can be 0 (all-burst mean): the off state then only advances
    // the clock to the next burst.
    SimTime next = state_rate > 0 ? t + rng.Exponential(state_rate)
                                  : std::numeric_limits<SimTime>::infinity();
    if (next <= state_end) {
      t = next;
      times.push_back(t);
    } else {
      t = state_end;
      on = !on;
      state_end = t + rng.Exponential(1.0 / (on ? mean_on_s : mean_off_s));
    }
  }
  return times;
}

// Nonhomogeneous Poisson via Lewis-Shedler thinning: candidates at the peak
// rate, accepted with probability rate(t) / peak. One uniform is consumed per
// candidate, so the stream is a pure function of the Rng state.
template <typename RateFn>
std::vector<SimTime> ThinnedArrivalTimes(Rng& rng, int n, double peak_rate, RateFn rate_at) {
  METIS_CHECK_GT(peak_rate, 0.0);
  std::vector<SimTime> times;
  times.reserve(static_cast<size_t>(n));
  SimTime t = 0;
  while (static_cast<int>(times.size()) < n) {
    t += rng.Exponential(peak_rate);
    if (rng.NextDouble() * peak_rate < rate_at(t)) {
      times.push_back(t);
    }
  }
  return times;
}

}  // namespace

std::vector<SimTime> ArrivalTimesFor(const ArrivalProcess& process, Rng& rng, int n,
                                     double rate) {
  METIS_CHECK_GT(rate, 0.0);
  switch (process.kind) {
    case ArrivalKind::kPoisson:
      return PoissonArrivalTimes(rng, n, rate);
    case ArrivalKind::kBursty:
      return BurstyArrivalTimes(process, rng, n, rate);
    case ArrivalKind::kFlashCrowd: {
      METIS_CHECK_GT(process.flash_factor, 1.0);
      METIS_CHECK_GT(process.flash_duration_s, 0.0);
      double start = process.flash_start_s;
      double end = process.flash_start_s + process.flash_duration_s;
      return ThinnedArrivalTimes(rng, n, rate * process.flash_factor, [&](SimTime t) {
        return t >= start && t < end ? rate * process.flash_factor : rate;
      });
    }
  }
  return PoissonArrivalTimes(rng, n, rate);
}

void AssignArrivals(std::vector<RagQuery>& queries, const ArrivalProcess& process, double rate,
                    uint64_t seed) {
  // Same stream derivation as AssignPoissonArrivals, so kPoisson (the stock
  // spec) replays the historical arrival times bit for bit.
  Rng rng(seed ^ 0x41525256ull);
  std::vector<SimTime> times =
      ArrivalTimesFor(process, rng, static_cast<int>(queries.size()), rate);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].arrival_time = times[i];
  }
}

}  // namespace metis
