#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nlp/dtw.h"
#include "nlp/embeddings.h"
#include "nlp/jenks.h"
#include "nlp/lexicon.h"
#include "nlp/pos_tagger.h"
#include "nlp/rule_features.h"
#include "nlp/tokenizer.h"
#include "tensor/ops.h"

namespace fexiot {
namespace {

TEST(Tokenizer, LowercasesAndStripsPunctuation) {
  const auto tokens = Tokenizer::Tokenize("Turn ON the Water-Valve, now!");
  const std::vector<std::string> expected = {"turn", "on",    "the",
                                             "water", "valve", "now"};
  EXPECT_EQ(tokens, expected);
}

TEST(Tokenizer, ContentDropsStopwords) {
  const auto tokens = Tokenizer::TokenizeContent("if the smoke is detected");
  const std::vector<std::string> expected = {"smoke", "detected"};
  EXPECT_EQ(tokens, expected);
}

TEST(Tokenizer, EmptyInput) {
  EXPECT_TRUE(Tokenizer::Tokenize("").empty());
  EXPECT_TRUE(Tokenizer::Tokenize("  ,,, !!").empty());
}

TEST(Lexicon, Synonyms) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_TRUE(lex.AreSynonyms("light", "lamp"));
  EXPECT_TRUE(lex.AreSynonyms("bulb", "light"));
  EXPECT_FALSE(lex.AreSynonyms("light", "fan"));
  EXPECT_FALSE(lex.AreSynonyms("light", "unknownword"));
}

TEST(Lexicon, Hypernyms) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_TRUE(lex.IsHypernym("light", "device"));
  EXPECT_TRUE(lex.IsHypernym("smoke", "sensor"));
  // Transitive: smoke -> sensor -> device.
  EXPECT_TRUE(lex.IsHypernym("smoke", "device"));
  EXPECT_FALSE(lex.IsHypernym("device", "light"));
}

TEST(Lexicon, MeronymsAndHolonyms) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_TRUE(lex.IsMeronym("lock", "door"));
  EXPECT_EQ(lex.Relation("lock", "door"), LexicalRelation::kMeronym);
  EXPECT_EQ(lex.Relation("door", "lock"), LexicalRelation::kHolonym);
}

TEST(Lexicon, CausalAssociations) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_TRUE(lex.AreCausallyAssociated("heater", "temperature"));
  EXPECT_TRUE(lex.AreCausallyAssociated("temperature", "heater"));
  // Through synonym canonicalization.
  EXPECT_TRUE(lex.AreCausallyAssociated("radiator", "temp"));
  EXPECT_FALSE(lex.AreCausallyAssociated("light", "temperature"));
}

TEST(Lexicon, ClusterIdsStable) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_EQ(lex.ClusterId("light"), lex.ClusterId("lamp"));
  EXPECT_NE(lex.ClusterId("light"), lex.ClusterId("fan"));
  EXPECT_EQ(lex.ClusterId("neverseenword"), 0);
}

TEST(PosTagger, TagsKnownClasses) {
  const auto tagged = PosTagger::Tag("close the valve");
  ASSERT_EQ(tagged.size(), 3u);
  EXPECT_EQ(tagged[0].tag, PosTag::kVerb);
  EXPECT_EQ(tagged[1].tag, PosTag::kDeterminer);
  EXPECT_EQ(tagged[2].tag, PosTag::kNoun);
}

TEST(PosTagger, ParseExtractsClausesAndObjects) {
  const RuleParse parse =
      PosTagger::Parse("Close the water valve if a water leak is detected");
  EXPECT_FALSE(parse.trigger_clause.empty());
  EXPECT_FALSE(parse.action_clause.empty());
  // "close" is the root action verb.
  ASSERT_FALSE(parse.verbs.empty());
  EXPECT_EQ(parse.verbs[0], "close");
  // "valve" appears among device objects.
  bool has_valve = false;
  for (const auto& o : parse.objects) has_valve |= (o == "valve");
  EXPECT_TRUE(has_valve);
}

TEST(WordEmbedding, UnitNormAndDeterministic) {
  const auto a = WordEmbedding::Embed("light");
  const auto b = WordEmbedding::Embed("light");
  EXPECT_EQ(a, b);
  EXPECT_NEAR(VectorNorm(a), 1.0, 1e-9);
  EXPECT_EQ(a.size(), static_cast<size_t>(WordEmbedding::kDim));
}

TEST(WordEmbedding, SynonymsCloserThanUnrelated) {
  const auto light = WordEmbedding::Embed("light");
  const auto lamp = WordEmbedding::Embed("lamp");
  const auto valve = WordEmbedding::Embed("valve");
  EXPECT_GT(CosineSimilarity(light, lamp), 0.6);
  EXPECT_LT(CosineSimilarity(light, valve),
            CosineSimilarity(light, lamp));
}

TEST(SentenceEncoder, ParaphrasesCloserThanUnrelated) {
  const auto a = SentenceEncoder::Encode("turn on the light");
  const auto b = SentenceEncoder::Encode("switch on the lamp");
  const auto c = SentenceEncoder::Encode("lock the front door");
  EXPECT_GT(CosineSimilarity(a, b), CosineSimilarity(a, c));
  EXPECT_EQ(a.size(), static_cast<size_t>(SentenceEncoder::kDim));
  EXPECT_NEAR(VectorNorm(a), 1.0, 1e-9);
}

TEST(TriggerActionPairEmbedding, SumsTriggerAndAction) {
  const auto pair = TriggerActionPairEmbedding("smoke is detected",
                                               "open the valve");
  EXPECT_EQ(pair.size(), static_cast<size_t>(WordEmbedding::kDim));
  EXPECT_GT(VectorNorm(pair), 0.1);
  // Changing the action state must move the embedding.
  const auto pair2 = TriggerActionPairEmbedding("smoke is detected",
                                                "close the valve");
  EXPECT_GT(EuclideanDistance(pair, pair2), 1e-3);
}

TEST(Dtw, IdenticalSequencesZero) {
  const auto e1 = WordEmbedding::Embed("light");
  const auto e2 = WordEmbedding::Embed("valve");
  EXPECT_NEAR(DtwDistance({e1, e2}, {e1, e2}), 0.0, 1e-9);
}

TEST(Dtw, HandlesDifferentLengths) {
  const auto e1 = WordEmbedding::Embed("light");
  const auto e2 = WordEmbedding::Embed("valve");
  const double d = DtwDistance({e1, e1, e2}, {e1, e2});
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(Dtw, EmptySequenceIsMaximal) {
  const auto e1 = WordEmbedding::Embed("light");
  EXPECT_DOUBLE_EQ(DtwDistance({}, {e1}), 2.0);
  EXPECT_DOUBLE_EQ(DtwDistance({}, {}), 0.0);
}

TEST(Jenks, TwoClassBreaksSeparateModes) {
  // Two clear modes around 20 and 80.
  std::vector<double> values = {18, 19, 20, 21, 22, 78, 79, 80, 81, 82};
  const auto bounds = JenksBreaks::Compute(values, 2);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_GE(bounds[1], 22.0);
  EXPECT_LT(bounds[1], 78.0);
  EXPECT_EQ(JenksBreaks::Classify(19.0, bounds), 0);
  EXPECT_EQ(JenksBreaks::Classify(81.0, bounds), 1);
  EXPECT_EQ(JenksBreaks::ClassLabel(0, 2), "low");
  EXPECT_EQ(JenksBreaks::ClassLabel(1, 2), "high");
}

TEST(Jenks, ThreeClasses) {
  std::vector<double> values = {1, 2, 3, 50, 51, 52, 99, 100, 101};
  const auto bounds = JenksBreaks::Compute(values, 3);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(JenksBreaks::Classify(2.0, bounds), 0);
  EXPECT_EQ(JenksBreaks::Classify(51.0, bounds), 1);
  EXPECT_EQ(JenksBreaks::Classify(100.0, bounds), 2);
}

TEST(Jenks, RefusesValuesItCannotSplit) {
  // A NaN or infinite value left the dynamic program without a split, and
  // recovering the breaks then read values[-1]; so did finite values whose
  // squares overflow.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(JenksBreaks::Compute({20, 21, 22, inf}, 2).empty());
  EXPECT_TRUE(JenksBreaks::Compute({20, 21, nan, 22}, 2).empty());
  EXPECT_TRUE(JenksBreaks::Compute({-inf, 20, 21, 22}, 2).empty());
  EXPECT_TRUE(JenksBreaks::Compute({1e200, 2e200, 3e200, 4e200}, 2).empty());
  EXPECT_EQ(JenksBreaks::Compute({20, 21, 22, 23}, 2).size(), 3u);
}

TEST(RuleFeatures, DimensionalityMatchesNames) {
  const auto f = RuleFeatureExtractor::ExtractPairFeatures(
      "If motion is detected, then turn on the light",
      "If the light turns on, then lock the door");
  EXPECT_EQ(f.size(),
            static_cast<size_t>(RuleFeatureExtractor::kPairFeatureDim));
  EXPECT_EQ(RuleFeatureExtractor::FeatureNames().size(), f.size());
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(RuleFeatures, CorrelatedPairScoresHigherOverlap) {
  // A's action (light on) matches B's trigger (light turns on).
  const auto correlated = RuleFeatureExtractor::ExtractPairFeatures(
      "If motion is detected, then turn on the light",
      "If the light turns on, then lock the door");
  const auto unrelated = RuleFeatureExtractor::ExtractPairFeatures(
      "If motion is detected, then turn on the light",
      "If a water leak is detected, then close the valve");
  // overlap_act_trig is feature index 4.
  EXPECT_GT(correlated[4], unrelated[4]);
}

}  // namespace
}  // namespace fexiot
