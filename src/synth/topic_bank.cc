#include "synth/topic_bank.h"

#include "text/string_util.h"

namespace coachlm {
namespace synth {

const std::vector<Topic>& Topics() {
  static const std::vector<Topic> kTopics = {
      {"photosynthesis", "science",
       "Photosynthesis converts carbon dioxide and water into glucose and "
       "oxygen using light energy.",
       "Photosynthesis converts oxygen and glucose into carbon dioxide and "
       "water using light energy.",
       {"The light-dependent reactions occur in the thylakoid membranes of "
        "the chloroplast.",
        "Chlorophyll absorbs mostly red and blue light, which is why leaves "
        "appear green.",
        "The Calvin cycle fixes carbon dioxide into sugars during the "
        "light-independent stage.",
        "Plants release the oxygen we breathe as a byproduct of this "
        "process."}},
      {"the water cycle", "science",
       "The water cycle moves water through evaporation, condensation, and "
       "precipitation.",
       "The water cycle moves water through melting, boiling, and freezing "
       "only.",
       {"Solar energy drives evaporation from oceans, lakes, and rivers.",
        "Water vapor condenses into clouds as rising air cools.",
        "Precipitation returns water to the surface as rain, snow, or hail.",
        "Groundwater slowly feeds rivers and aquifers between rainfalls."}},
      {"gravity", "science",
       "Gravity is the attractive force between masses, and on Earth it "
       "accelerates objects at about 9.8 meters per second squared.",
       "Gravity is a repulsive force between masses, and on Earth it "
       "accelerates objects at about 98 meters per second squared.",
       {"Isaac Newton described gravitation as a universal force between "
        "any two masses.",
        "Einstein's general relativity models gravity as curvature of "
        "spacetime.",
        "The Moon's gravity causes the ocean tides on Earth.",
        "Objects in orbit are in continuous free fall around the body they "
        "circle."}},
      {"the solar system", "science",
       "The solar system has eight planets orbiting the Sun.",
       "The solar system has eleven planets orbiting the Sun.",
       {"Jupiter is the largest planet, with a mass greater than all other "
        "planets combined.",
        "Mercury completes an orbit of the Sun in only 88 Earth days.",
        "The asteroid belt lies between the orbits of Mars and Jupiter.",
        "Neptune was located mathematically before it was observed through "
        "a telescope."}},
      {"dna", "science",
       "DNA stores genetic information in sequences of four bases: adenine, "
       "thymine, guanine, and cytosine.",
       "DNA stores genetic information in sequences of four bases: adenine, "
       "uracil, guanine, and cytosine.",
       {"The double helix structure was described by Watson and Crick in "
        "1953.",
        "Genes are stretches of DNA that encode proteins.",
        "During replication each strand serves as a template for a new "
        "complementary strand.",
        "Mutations are changes in the base sequence that can alter protein "
        "function."}},
      {"vaccines", "science",
       "Vaccines train the immune system to recognize a pathogen without "
       "causing the disease.",
       "Vaccines cure diseases after infection by directly killing the "
       "pathogen.",
       {"Edward Jenner pioneered vaccination against smallpox in 1796.",
        "Herd immunity protects people who cannot be vaccinated themselves.",
        "Modern mRNA vaccines deliver instructions for cells to produce a "
        "harmless antigen.",
        "Booster doses refresh the immune memory as antibody levels "
        "decline."}},
      {"climate change", "science",
       "Rising greenhouse gas concentrations are warming the planet's "
       "average surface temperature.",
       "Rising greenhouse gas concentrations are cooling the planet's "
       "average surface temperature.",
       {"Carbon dioxide from burning fossil fuels is the largest human "
        "contribution.",
        "Warming oceans expand and, together with melting ice, raise sea "
        "levels.",
        "Extreme weather events become more frequent as the climate "
        "warms.",
        "Renewable energy and efficiency are the main levers for reducing "
        "emissions."}},
      {"the roman empire", "history",
       "The Western Roman Empire fell in 476 CE.",
       "The Western Roman Empire fell in 1066 CE.",
       {"At its height the empire stretched from Britain to Mesopotamia.",
        "Roman law and engineering still influence modern institutions and "
        "infrastructure.",
        "Latin, the language of Rome, is the ancestor of the Romance "
        "languages.",
        "The empire split into western and eastern halves in 285 CE under "
        "Diocletian."}},
      {"the renaissance", "history",
       "The Renaissance was a cultural revival of art and learning that "
       "began in 14th-century Italy.",
       "The Renaissance was a cultural revival of art and learning that "
       "began in 18th-century Russia.",
       {"Florence's wealthy patrons, such as the Medici, funded artists and "
        "scholars.",
        "Leonardo da Vinci and Michelangelo exemplified the era's ideal of "
        "the universal genius.",
        "The printing press spread Renaissance ideas rapidly across "
        "Europe.",
        "Humanism placed renewed emphasis on classical Greek and Roman "
        "texts."}},
      {"the industrial revolution", "history",
       "The Industrial Revolution began in Britain in the late 18th "
       "century.",
       "The Industrial Revolution began in Japan in the early 16th "
       "century.",
       {"Steam power transformed manufacturing, mining, and transport.",
        "Factory towns grew quickly, changing where and how people lived.",
        "Railways cut travel times and knit national markets together.",
        "Mechanized textile production was the leading early industry."}},
      {"ancient egypt", "history",
       "The Great Pyramid of Giza was built around 2560 BCE as a tomb for "
       "the pharaoh Khufu.",
       "The Great Pyramid of Giza was built around 560 CE as a temple for "
       "the pharaoh Tutankhamun.",
       {"The Nile's annual floods made Egyptian agriculture possible.",
        "Hieroglyphic writing was deciphered using the Rosetta Stone.",
        "Pharaohs were considered divine intermediaries between gods and "
        "people.",
        "Mummification reflected beliefs about the afterlife."}},
      {"world war ii", "history",
       "World War II ended in 1945 with the surrender of Germany and "
       "Japan.",
       "World War II ended in 1952 with the surrender of Germany and "
       "Japan.",
       {"The war involved more than 30 countries across every inhabited "
        "continent.",
        "The D-Day landings in Normandy opened a western front in 1944.",
        "The United Nations was founded in the war's aftermath to prevent "
        "future conflicts.",
        "Wartime research accelerated technologies from radar to jet "
        "engines."}},
      {"the printing press", "history",
       "Johannes Gutenberg introduced movable-type printing to Europe "
       "around 1440.",
       "Johannes Gutenberg introduced movable-type printing to Europe "
       "around 1740.",
       {"Printed books became dramatically cheaper than hand-copied "
        "manuscripts.",
        "Literacy expanded as printed material reached ordinary "
        "households.",
        "Scientific results could be reproduced and checked across "
        "distances.",
        "Pamphlets and newspapers reshaped politics and public opinion."}},
      {"machine learning", "technology",
       "Machine learning systems improve at tasks by learning patterns "
       "from data rather than following hand-written rules.",
       "Machine learning systems improve at tasks by following hand-written "
       "rules rather than learning patterns from data.",
       {"Supervised learning fits a model to labeled input-output "
        "examples.",
        "Overfitting happens when a model memorizes noise instead of "
        "generalizing.",
        "Neural networks stack layers of simple units to learn complex "
        "functions.",
        "Training data quality strongly influences a model's behaviour."}},
      {"the internet", "technology",
       "The Internet is a global network of networks communicating through "
       "the TCP/IP protocol suite.",
       "The Internet is a single central computer that all devices connect "
       "to directly.",
       {"Packet switching lets many conversations share the same links.",
        "The ARPANET of 1969 is the Internet's direct ancestor.",
        "DNS translates human-readable names into numeric addresses.",
        "The web, email, and streaming are applications built on top of "
        "the Internet."}},
      {"renewable energy", "technology",
       "Solar and wind power generate electricity without burning fossil "
       "fuels.",
       "Solar and wind power generate electricity by burning refined "
       "fossil fuels.",
       {"Photovoltaic cells convert sunlight directly into electric "
        "current.",
        "Wind turbines extract kinetic energy from moving air.",
        "Battery storage smooths the variability of renewable sources.",
        "The cost of solar panels has fallen by roughly 90% since 2010."}},
      {"electric cars", "technology",
       "Electric cars are propelled by battery-powered motors instead of "
       "internal combustion engines.",
       "Electric cars are propelled by small internal combustion engines "
       "that charge their batteries while driving.",
       {"Regenerative braking recovers energy that friction brakes would "
        "waste as heat.",
        "Charging networks are expanding along major highway corridors.",
        "Electric motors deliver full torque instantly from a standstill.",
        "Battery costs dominate the price difference with petrol cars."}},
      {"cybersecurity", "technology",
       "Strong unique passwords and two-factor authentication are basic "
       "defenses against account takeover.",
       "Reusing one strong password everywhere is the recommended defense "
       "against account takeover.",
       {"Phishing lures users into revealing credentials on fake sites.",
        "Software updates patch vulnerabilities attackers exploit.",
        "Encryption protects data both in transit and at rest.",
        "Backups limit the damage ransomware can cause."}},
      {"cloud computing", "technology",
       "Cloud computing rents on-demand computing resources over the "
       "network instead of owning servers.",
       "Cloud computing requires every company to buy and host its own "
       "physical servers.",
       {"Elastic scaling adds capacity during demand spikes and releases "
        "it afterwards.",
        "Data centers achieve efficiency through massive shared "
        "infrastructure.",
        "Managed services shift maintenance work to the provider.",
        "Pay-as-you-go pricing converts capital costs into operating "
        "costs."}},
      {"healthy eating", "daily life",
       "A balanced diet combines vegetables, fruits, whole grains, and "
       "lean protein in sensible portions.",
       "A balanced diet consists mostly of refined sugar with occasional "
       "vegetables.",
       {"Fiber from whole grains supports digestion and steady energy.",
        "Cooking at home gives control over salt, sugar, and fat.",
        "Hydration matters: water is the best everyday drink.",
        "Highly processed foods tend to pack calories without "
        "nutrients."}},
      {"regular exercise", "daily life",
       "Regular moderate exercise strengthens the heart, muscles, and "
       "mood.",
       "Regular moderate exercise weakens the heart and should be avoided "
       "by healthy adults.",
       {"Guidelines suggest about 150 minutes of moderate activity per "
        "week.",
        "Strength training twice a week preserves muscle and bone "
        "density.",
        "Walking, cycling, and swimming are accessible low-impact "
        "options.",
        "Consistency beats intensity for long-term health benefits."}},
      {"time management", "daily life",
       "Effective time management prioritizes important tasks and limits "
       "distractions.",
       "Effective time management means doing every task the moment it is "
       "requested.",
       {"Breaking large projects into small steps reduces "
        "procrastination.",
        "Time-blocking reserves focused periods for deep work.",
        "Reviewing the plan each morning keeps priorities visible.",
        "Saying no to low-value requests protects the schedule."}},
      {"public speaking", "daily life",
       "Good public speaking rests on preparation, clear structure, and "
       "practice.",
       "Good public speaking rests on improvising everything without "
       "preparation.",
       {"Opening with a story or question draws the audience in.",
        "Pauses give listeners time to absorb key points.",
        "Rehearsing aloud exposes awkward phrasing before the real talk.",
        "Eye contact builds trust with the audience."}},
      {"saving money", "business",
       "Paying yourself first by saving a fixed share of income builds "
       "wealth steadily.",
       "Spending first and saving whatever remains builds wealth "
       "fastest.",
       {"An emergency fund of three to six months of expenses cushions "
        "shocks.",
        "Automatic transfers remove the temptation to skip saving.",
        "Compound interest rewards money saved early.",
        "Tracking expenses reveals easy places to cut."}},
      {"remote work", "business",
       "Remote work trades commuting time for flexibility but demands "
       "deliberate communication.",
       "Remote work eliminates the need for any communication with "
       "colleagues.",
       {"Written updates keep distributed teammates aligned.",
        "A dedicated workspace helps separate work from home life.",
        "Overlapping core hours make real-time collaboration possible.",
        "Regular video calls preserve team cohesion."}},
      {"small business marketing", "business",
       "Small businesses grow by understanding their customers and "
       "focusing marketing on the channels those customers use.",
       "Small businesses grow by advertising identically on every channel "
       "regardless of their customers.",
       {"Word-of-mouth referrals convert better than cold outreach.",
        "A simple website with clear contact details builds "
        "credibility.",
        "Email newsletters keep past customers coming back.",
        "Local partnerships expand reach at low cost."}},
      {"customer service", "business",
       "Great customer service listens first, resolves the issue, and "
       "follows up.",
       "Great customer service deflects complaints until customers stop "
       "asking.",
       {"Acknowledging the customer's frustration defuses tension.",
        "Empowered front-line staff resolve issues faster.",
        "Follow-up messages confirm the problem stayed fixed.",
        "Feedback loops turn complaints into product improvements."}},
      {"classical music", "arts",
       "The symphony orchestra combines strings, woodwinds, brass, and "
       "percussion.",
       "The symphony orchestra consists only of string instruments.",
       {"Beethoven bridged the Classical and Romantic eras.",
        "A concerto features a solo instrument in dialogue with the "
        "orchestra.",
        "Tempo and dynamics markings guide interpretation.",
        "Mozart wrote more than 600 works in his short life."}},
      {"impressionist painting", "arts",
       "Impressionist painters captured fleeting light with loose, visible "
       "brushstrokes.",
       "Impressionist painters hid every brushstroke to imitate "
       "photographs.",
       {"Claude Monet's 'Impression, Sunrise' gave the movement its name.",
        "Painting outdoors let artists observe natural light directly.",
        "The movement faced ridicule before reshaping modern art.",
        "Complementary colors placed side by side create vibrancy."}},
      {"photography basics", "arts",
       "Exposure in photography balances aperture, shutter speed, and "
       "ISO.",
       "Exposure in photography depends only on the price of the "
       "camera.",
       {"A wide aperture blurs the background to isolate the subject.",
        "Slow shutter speeds convey motion; fast ones freeze it.",
        "The rule of thirds places subjects off-center for balance.",
        "Golden-hour light flatters almost any scene."}},
      {"creative writing", "arts",
       "Strong stories show character change through concrete scenes "
       "rather than summary.",
       "Strong stories avoid any change in their characters.",
       {"Conflict gives a narrative its forward motion.",
        "Specific sensory detail makes scenes vivid.",
        "Dialogue reveals character faster than description.",
        "Revision is where most of the writing actually happens."}},
      {"chess strategy", "daily life",
       "Controlling the center and developing pieces early are core "
       "opening principles in chess.",
       "Moving only edge pawns for the first ten moves is a core opening "
       "principle in chess.",
       {"Knights are strongest on central squares.",
        "Castling tucks the king to safety and connects the rooks.",
        "A passed pawn grows stronger as the endgame approaches.",
        "Tactics flow from superior piece activity."}},
      {"gardening", "daily life",
       "Most vegetables need at least six hours of direct sunlight and "
       "well-drained soil.",
       "Most vegetables grow best in total darkness and waterlogged "
       "soil.",
       {"Compost enriches soil structure and feeds microbial life.",
        "Mulch suppresses weeds and retains moisture.",
        "Rotating crops interrupts pest and disease cycles.",
        "Watering deeply but infrequently encourages strong roots."}},
      {"coffee brewing", "daily life",
       "Brewing coffee extracts flavor best with water just below "
       "boiling, around 90 to 96 degrees Celsius.",
       "Brewing coffee extracts flavor best with ice-cold water poured "
       "quickly.",
       {"A consistent grind size is the biggest lever on taste.",
        "Freshly roasted beans lose aroma within weeks of roasting.",
        "The golden ratio is roughly 60 grams of coffee per litre of "
        "water.",
        "Pour-over methods highlight acidity; immersion methods add "
        "body."}},
      {"space exploration", "science",
       "Apollo 11 landed the first humans on the Moon in 1969.",
       "Apollo 11 landed the first humans on Mars in 1969.",
       {"Reusable rockets have sharply cut the cost of reaching orbit.",
        "Robotic probes have visited every planet in the solar system.",
        "The International Space Station has been continuously occupied "
        "since 2000.",
        "Telescopes in space avoid the blurring of Earth's atmosphere."}},
      {"the human brain", "science",
       "The human brain contains roughly 86 billion neurons.",
       "The human brain contains roughly 86 thousand neurons.",
       {"Synapses strengthen with use, the basis of learning.",
        "The prefrontal cortex supports planning and self-control.",
        "Sleep consolidates memories formed during the day.",
        "The brain consumes about a fifth of the body's energy."}},
      {"ocean ecosystems", "science",
       "Coral reefs support about a quarter of all marine species while "
       "covering less than one percent of the ocean floor.",
       "Coral reefs support almost no marine species despite covering "
       "half of the ocean floor.",
       {"Phytoplankton produce a large share of the oxygen in the "
        "atmosphere.",
        "Ocean currents redistribute heat around the globe.",
        "Overfishing disrupts food webs far beyond the targeted "
        "species.",
        "Warming and acidification stress reef-building corals."}},
      {"volcanoes", "science",
       "Volcanoes erupt when molten rock, or magma, rises through the "
       "crust and escapes as lava.",
       "Volcanoes erupt when ocean water drains into the crust and "
       "freezes.",
       {"Most volcanoes form along tectonic plate boundaries.",
        "The Ring of Fire around the Pacific hosts the majority of "
        "active volcanoes.",
        "Volcanic ash enriches soils over the long term.",
        "Eruptions are classified by their explosivity index."}},
      {"the french revolution", "history",
       "The French Revolution began in 1789 with the storming of the "
       "Bastille.",
       "The French Revolution began in 1889 with the storming of the "
       "Eiffel Tower.",
       {"Fiscal crisis and food shortages fueled popular anger.",
        "The Declaration of the Rights of Man proclaimed legal "
        "equality.",
        "The monarchy was abolished and a republic declared in 1792.",
        "Its ideas of citizenship spread across Europe in the following "
        "decades."}},
      {"the silk road", "history",
       "The Silk Road was a network of trade routes linking China with "
       "the Mediterranean for centuries.",
       "The Silk Road was a single paved highway built in the 20th "
       "century.",
       {"Silk, spices, paper, and ideas all traveled the routes.",
        "Caravanserais sheltered merchants a day's journey apart.",
        "Buddhism spread from India to East Asia along these paths.",
        "Maritime routes eventually carried more volume than the land "
        "legs."}},
      {"programming in python", "technology",
       "Python is a high-level language known for readable syntax and a "
       "vast ecosystem of libraries.",
       "Python is a low-level assembly language with no libraries.",
       {"Indentation defines code blocks instead of braces.",
        "List comprehensions express loops over collections concisely.",
        "The standard library covers tasks from file I/O to networking.",
        "Virtual environments isolate project dependencies."}},
      {"databases", "technology",
       "Relational databases organize data into tables and answer "
       "queries written in SQL.",
       "Relational databases store all data in a single unstructured "
       "text file.",
       {"Indexes trade write cost for much faster lookups.",
        "Transactions keep data consistent even when operations fail "
        "midway.",
        "Normalization removes redundant copies of the same fact.",
        "Query planners choose join orders to minimize work."}},
      {"artificial satellites", "technology",
       "Artificial satellites stay in orbit because their horizontal "
       "speed balances Earth's gravitational pull.",
       "Artificial satellites stay in orbit because they are lighter "
       "than air.",
       {"Geostationary satellites hover over one point by orbiting in "
        "24 hours.",
        "GPS receivers compute position from timing signals of several "
        "satellites.",
        "Low orbits require speeds near 7.8 kilometres per second.",
        "Atmospheric drag slowly lowers satellites in low orbit."}},
      {"personal budgeting", "business",
       "A budget assigns every unit of income a job across spending, "
       "saving, and debt repayment.",
       "A budget is a record written after money is spent with no plan "
       "attached.",
       {"The 50/30/20 rule splits income into needs, wants, and "
        "savings.",
        "Reviewing subscriptions yearly trims silent recurring costs.",
        "Cash envelopes make overspending physically visible.",
        "Small automated transfers accumulate into real savings."}},
      {"negotiation", "business",
       "Successful negotiation seeks outcomes that satisfy the core "
       "interests of both sides.",
       "Successful negotiation requires one side to concede on every "
       "point.",
       {"Preparation means knowing your alternatives before you sit "
        "down.",
        "Open questions surface the other side's real constraints.",
        "Anchoring with the first offer shapes the bargaining range.",
        "Silence after an offer often improves the next one."}},
      {"team leadership", "business",
       "Effective leaders set clear goals, delegate authority, and give "
       "timely feedback.",
       "Effective leaders make every decision personally and withhold "
       "feedback.",
       {"Psychological safety lets teams surface problems early.",
        "One-on-one meetings catch concerns before they grow.",
        "Recognition reinforces the behaviour a team values.",
        "Delegation develops the judgment of future leaders."}},
      {"haiku poetry", "arts",
       "A traditional haiku has three lines of five, seven, and five "
       "syllables.",
       "A traditional haiku has ten rhyming lines of equal length.",
       {"Haiku classically evoke a season with a single image.",
        "The form prizes concrete observation over abstraction.",
        "A cutting word creates a pause or turn between images.",
        "Matsuo Basho elevated haiku to high art in 17th-century "
        "Japan."}},
      {"film editing", "arts",
       "Film editing assembles shots to control a story's rhythm and "
       "meaning.",
       "Film editing only trims the first and last frame of a single "
       "shot.",
       {"A match cut links two scenes through visual similarity.",
        "Cross-cutting builds tension between parallel actions.",
        "The Kuleshov effect shows meaning arises between shots.",
        "Sound bridges smooth transitions between scenes."}},
  };
  return kTopics;
}

const Topic* FindTopicIn(const std::string& text) {
  const std::string lower = strings::Lower(text);
  for (const Topic& topic : Topics()) {
    if (lower.find(topic.name) != std::string::npos) return &topic;
  }
  return nullptr;
}

bool TopicOwnsText(const Topic& topic, const std::string& text) {
  // Case-insensitive: revised text often carries a decapitalized copy of
  // a sentence after a discourse marker ("For example, the Calvin ...").
  const std::string lower = strings::Lower(text);
  auto contains_ci = [&lower](const std::string& needle) {
    return lower.find(strings::Lower(needle)) != std::string::npos;
  };
  if (contains_ci(topic.name)) return true;
  if (contains_ci(topic.fact)) return true;
  if (contains_ci(topic.wrong_fact)) return true;
  for (const std::string& detail : topic.details) {
    if (contains_ci(detail)) return true;
  }
  return false;
}

const Topic* FindOwningTopic(const std::string& text) {
  for (const Topic& topic : Topics()) {
    if (TopicOwnsText(topic, text)) return &topic;
  }
  return nullptr;
}

}  // namespace synth
}  // namespace coachlm
