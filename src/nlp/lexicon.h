#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fexiot {

/// \brief Lexical relations queried by the causal-relation features
/// (synonym / hypernym / meronym / holonym, Section III-A1 of the paper).
enum class LexicalRelation {
  kNone = 0,
  kSynonym,
  kHypernym,  // a IS-A b (b generalizes a)
  kMeronym,   // a is PART-OF b
  kHolonym,   // a HAS-PART b
};

/// \brief Built-in smart-home domain lexicon.
///
/// Substitutes for WordNet in the paper's causal-relation features: a
/// curated set of synonym groups, IS-A edges and PART-OF edges over the
/// device / attribute / action vocabulary that the platform rule generators
/// draw from. Also exposes semantic cluster ids used to give hashed word
/// embeddings a distributional prior.
class Lexicon {
 public:
  /// Returns the process-wide lexicon (immutable after construction).
  static const Lexicon& Get();

  /// True if \p a and \p b belong to the same synonym group.
  bool AreSynonyms(const std::string& a, const std::string& b) const;

  /// True if \p a IS-A \p b (directly or transitively).
  bool IsHypernym(const std::string& a, const std::string& b) const;

  /// True if \p a is part of \p b.
  bool IsMeronym(const std::string& a, const std::string& b) const;

  /// Strongest relation between the two words (checks both directions for
  /// meronym/holonym).
  LexicalRelation Relation(const std::string& a, const std::string& b) const;

  /// True if the two words are causally associated in the smart-home
  /// domain (a heater raises temperature, an open valve causes leaks...).
  /// Symmetric. Used by the causal-relation features of Section III-A1.
  bool AreCausallyAssociated(const std::string& a,
                             const std::string& b) const;

  /// Canonical representative of the word's synonym group (the word itself
  /// if unknown).
  const std::string& Canonical(const std::string& word) const;

  /// Semantic cluster id for embedding priors; 0 for unknown words.
  /// Cluster ids are stable across runs.
  int ClusterId(const std::string& word) const;
  int num_clusters() const { return num_clusters_; }

  /// True if the word is a known action verb (turn, open, lock, ...).
  bool IsActionVerb(const std::string& word) const;
  /// True if the word is a known device/sensor noun.
  bool IsDeviceNoun(const std::string& word) const;
  /// True if the word names a device attribute/state (on, off, open, ...).
  bool IsStateWord(const std::string& word) const;

 private:
  Lexicon();

  void AddSynonymGroup(const std::vector<std::string>& words);
  void AddHypernym(const std::string& child, const std::string& parent);
  void AddMeronym(const std::string& part, const std::string& whole);
  void AddCausalAssociation(const std::string& a, const std::string& b);

  std::unordered_map<std::string, int> synonym_group_;
  std::vector<std::string> group_canonical_;
  std::unordered_map<std::string, std::vector<std::string>> hypernyms_;
  std::unordered_map<std::string, std::vector<std::string>> meronyms_;
  std::unordered_set<std::string> causal_pairs_;
  std::unordered_map<std::string, int> cluster_;
  int num_clusters_ = 0;
  std::unordered_set<std::string> action_verbs_set_;
  std::unordered_set<std::string> device_nouns_set_;
  std::unordered_set<std::string> state_words_;
};

}  // namespace fexiot
